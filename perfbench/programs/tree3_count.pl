% Node count of a ternary tree with at least one full-depth branch:
% never fewer than 2*height+1 nodes.
t(H, N) :- H = 0, N = 1.
t(H, N) :- H >= 1, H1 = H - 1, H2 >= 0, H2 =< H - 1, H3 >= 0, H3 =< H - 1,
           t(H1, N1), t(H2, N2), t(H3, N3), N = N1 + N2 + N3 + 1.
false :- t(H, N), N < 2*H + 1.
