"""Quasi-heredity certificates: the four defining conditions checked
exactly for an ordered family of standard modules, with the reference
family computed as trace-ideal quotients of the projectives.  A family
that is not standard for any order of the idempotents gives no verdict."""

from ditred import (
    QQ,
    Arrow,
    Ditalgebra,
    FDAlgebra,
    check_quasi_hereditary,
    oracle_standard_modules,
    right_algebra,
    simple_modules,
)

print("== the path algebra of one arrow ==")
a2 = Ditalgebra(QQ, [None, None], [Arrow("a", 0, 1, 0)], [], {})
gamma = right_algebra(a2).alg
cert = check_quasi_hereditary(gamma, oracle_standard_modules(gamma))
print(cert.report())

print()
print("== the dual numbers ==")
z, o = QQ.zero, QQ.one
duals = FDAlgebra(QQ, [[[o, z], [z, o]], [[z, o], [z, z]]], [o, z], ["1", "t"])
print("with the quotient family, standard but without scalar endomorphisms:")
print(check_quasi_hereditary(duals, oracle_standard_modules(duals)).report())
print()
print("with the family of simples, which is not standard, so no verdict:")
print(check_quasi_hereditary(duals, simple_modules(duals)).report())
