% Safe: a tree of height H has a branch of H + 1 nodes, so at least H + 1 nodes.
t(H, N) :- H = 0, N = 1.
t(H, N) :- H >= 1, H1 = H - 1, H2 >= 0, H2 =< H - 1,
           t(H1, N1), t(H2, N2), N = N1 + N2 + 1.
t(H, N) :- H >= 1, H1 = H - 1, t(H1, N1), N = N1 + 1.
false :- t(H, N), N < H + 1.
