"""The bridge: endomorphisms of the regular module form the right
algebra; Hom from the regular module embeds the whole module category
onto the induced modules, which are exactly the modules filtered by the
induced simples."""

from ditred import (
    QQ,
    AlgMod,
    Arrow,
    DitModule,
    Ditalgebra,
    Mat,
    delta_filtration,
    functor_H,
    induce,
    right_algebra,
)

a2 = Ditalgebra(QQ, [None, None], [Arrow("a", 0, 1, 0)], [], {})
bridge = right_algebra(a2)
print(f"right algebra of the one-arrow layer: dimension {bridge.dim}")

P = DitModule(a2, (1, 1), {"a": Mat(QQ, [[QQ.one]])})
print(f"dim H(P) = {functor_H(bridge, P).dim}")

print()
print("== induction agrees with Hom from the regular module ==")
for name, M in (("S1", DitModule.simple(a2, 0)), ("S2", DitModule.simple(a2, 1)), ("P", P)):
    ind = induce(bridge, M)
    hom = functor_H(bridge, M)
    iso = ind.is_isomorphic(hom) is not None
    print(f"induce({name}) ~ H({name}): dims {ind.dim} = {hom.dim}, isomorphic: {iso}")

print()
print("== the standard family and a filtration of the regular module ==")
fam = bridge.standard_family()
print("standard dims:", [D.dim for D in fam])
wit = delta_filtration(bridge.alg, fam, AlgMod.regular(bridge.alg))
print(f"regular module filtered in {len(wit)} layers; factor indices, bottom to top:",
      [idx + 1 for idx, _ in wit])
