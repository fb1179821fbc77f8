"""Rank-one Eisenstein cohomology for arbitrary genus.

For g=1 the answer is a closed polynomial in L; for higher genus the
formula reduces to Euler characteristics one genus down, which stay
symbolic beyond g=2.  Also dumps the boundary-term table feeding the
formula.
"""

from siegeleis import boundary_terms, enumerate_final, rank1

print("Genus 1 (Eichler-Shimura territory)")
print("===================================")
for k in (0, 2, 10, 20):
    print(f"  lambda=({k}):  {rank1(1, (k,))}")
print()

print("Genus 2, expanded through the genus-1 rules")
print("===========================================")
for lam in [(0, 0), (2, 0), (6, 2), (11, 5)]:
    print(f"  lambda={lam}:  {rank1(2, lam, expand=True)}")
print()

print("Genus 3 stays symbolic in genus-2 Euler characteristics")
print("=======================================================")
for lam in [(1, 1, 0), (5, 3, 1)]:
    print(f"  lambda={lam}:  {rank1(3, lam)}")
print()

print("Boundary terms for g=2, lambda=(5,3)")
print("====================================")
finals = enumerate_final(2)  # a term's w is its source element's index in this list
for t in boundary_terms(2, (5, 3)):
    sign = "+" if t.sign > 0 else "-"
    twist = f" <nu^{t.twist}>" if t.twist else ""
    parity = "kept" if t.parity_pass else "killed by GL(1,Z)"
    print(
        f"  w={finals[t.w]} k={t.k} side={t.side}: "
        f"{sign}W({','.join(str(a) for a in t.weight)}){twist}  [{parity}]"
    )
