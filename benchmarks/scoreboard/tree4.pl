% Safe: a quaternary tree with one full-depth branch has N >= 3*H + 1 >= 2*H + 1
% nodes, since a step adds the root and three subtrees of at least one node.
t(H, N) :- H = 0, N = 1.
t(H, N) :- H >= 1, H1 = H - 1, H2 >= 0, H2 =< H - 1, H3 >= 0, H3 =< H - 1,
           H4 >= 0, H4 =< H - 1,
           t(H1, N1), t(H2, N2), t(H3, N3), t(H4, N4), N = N1 + N2 + N3 + N4 + 1.
false :- t(H, N), N < 2*H + 1.
