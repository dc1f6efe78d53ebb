// One instance of each banned kind, so that symbols.canary_is_caught can
// require check_symbols.sh to report every rule family on this object.
#include <chrono>
#include <cstdlib>
#include <map>
#include <unordered_map>

std::map<int*, int> canary_pointer_keys;     // D1
std::unordered_map<int, int> canary_hashed;  // D2
int CanaryRand() { return std::rand(); }     // D3
std::chrono::steady_clock::time_point CanaryNow() { return std::chrono::steady_clock::now(); }  // D3
