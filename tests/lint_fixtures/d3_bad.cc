// D3 fixture: every banned nondeterminism source. Not compiled — lint
// input only.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

int jitter() { return rand() % 7; }                              // bad: rand()
void reseed() { srand(42); }                                     // bad: srand()
std::random_device entropy;                                      // bad: hardware entropy
auto t0 = std::chrono::steady_clock::now();                      // bad: host clock
auto t1 = std::chrono::system_clock::now();                      // bad: host clock
auto t2 = std::chrono::high_resolution_clock::now();             // bad: host clock
long stamp() { return time(nullptr); }                           // bad: time()
long ticks() { return clock(); }                                 // bad: clock()
const char* home() { return getenv("HOME"); }                    // bad: environment read
const char* shell() { return secure_getenv("SHELL"); }           // bad: environment read
int qualified() { return std::rand(); }                          // bad: std::rand()
double unit() { return drand48(); }                              // bad: drand48()
