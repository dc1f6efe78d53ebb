// Unknown-rule fixture: an allow() naming a rule outside the catalogue is a
// SUPPRESS error and suppresses nothing. Not compiled — lint input only.
#include <cstdlib>

// A retired rule id: the D3 finding on the next line stays unsuppressed.
// wc-lint: allow(D7 this rule no longer exists)
int a = rand();
int b = rand();  // wc-lint: allow(X9 misspelled rule id)
// Retired too (replaced by the measured allocation budget): a leftover A2
// waiver suppresses nothing.
// wc-lint: allow(A2 waiter list bounded by spawned threads)
int c = rand();
// The retired flow rules: A1 (now D3 at error everywhere plus the golden
// hashes), A3 (now C++ access control) and A4 (now the RqLoad memo tests).
// wc-lint: allow(A1 wall time never feeds the hash)
int d = rand();
int e = rand();  // wc-lint: allow(A3 policy reads a private member)
// wc-lint: allow(A4 sanctioned fold chain)
int f = rand();
