"""n x m torus covers of a dimer quiver.

The cover lifts every vertex and arrow over the cosets of nZ x mZ in the
homology lattice: a lifted arrow leaves cell c and lands in cell
c + homology (mod n, m), and its homology in the cover is the quotient of
that displacement by the sublattice.  Face boundaries lift to closed
walks because every face has zero homology.  For c3 and the conifold
these are the abelian orbifold tilings of Hanany-Kennaway, "Dimer models
and toric diagrams".

Vertex ids are base-vertex major, so the 1 x 1 cover is the base quiver
itself, arrow for arrow.
"""

from __future__ import annotations


def torus_cover(q, n: int, m: int):
    """The n x m cover of q; structure only, validity is validate_dimer's job.

    ``make_quiver`` is looked up at call time, so the cover is built by
    whichever copy of ``dimeralg`` is currently imported.
    """
    from dimeralg.quiver import make_quiver

    if n < 1 or m < 1:
        raise ValueError("cover index must be positive")
    cells = [(i, j) for i in range(n) for j in range(m)]
    index = {c: k for k, c in enumerate(cells)}

    def step(c, hom):
        x, y = c[0] + hom[0], c[1] + hom[1]
        return (x % n, y % m), (x // n, y // m)

    arrows, lifted = [], {}
    for a in q.arrows:
        for c in cells:
            head_cell, hom = step(c, a.homology)
            lifted[(a.id, c)] = len(arrows)
            arrows.append((a.tail * len(cells) + index[c], a.head * len(cells) + index[head_cell], hom))
    faces = []
    for f in q.faces:
        for c in cells:
            boundary, at = [], c
            for aid in f.boundary:
                boundary.append(lifted[(aid, at)])
                at, _ = step(at, q.arrow(aid).homology)
            faces.append(boundary)
    return make_quiver(q.num_vertices * len(cells), arrows, faces)
