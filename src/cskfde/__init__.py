"""cskfde: TLED/QLED colour-shift-keying link simulation with cyclic-prefix
block transmission and frequency-domain zero-forcing equalisation over
diffuse optical wireless channels.

Each public name is imported from its module, e.g. ``from cskfde import
harness``; importing the package alone loads none of them."""
