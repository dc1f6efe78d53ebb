#!/usr/bin/env bash
# Determinism rules D1-D3, checked on the symbol tables of built code.
#
# Usage: check_symbols.sh FILE...   (static archives and object files)
#
# Prints one line per finding, "<rule>: <object>: <symbol>", grouped by rule,
# and exits 1 if there is any; exits 0 on a clean set.
#
#   D1  a pointer-keyed std::map/set: iteration follows allocation
#       addresses, which ASLR moves from run to run.
#   D2  a std::unordered_* container: bucket order depends on the hasher and
#       the library version.
#   D3  a host source of nondeterminism: libc randomness, the host clocks,
#       the environment, std::random_device. Simulation code uses the
#       virtual clock and the seeded Rng. There is no allowed exception:
#       host time is read only by simbench and scripts/ab_bench.sh.
#
# A container instantiation leaves template symbols in the object and a call
# into libc or libstdc++ leaves an undefined one, so no parser is needed.
# What leaves no symbol goes unseen; DESIGN.md "Static guardrails" lists the
# known gaps.
set -euo pipefail

# nm -A prefixes each symbol with its file ("archive:member" in an archive).
# Keep the object's base name, the symbol's type and its demangled name.
table="$(nm -C -A "$@" |
  sed -nE 's/^([^ ]*\/)?([^ /:]*:)?([^ /:]+):([0-9a-f]+| +) ([A-Za-z]) (.*)$/\3 \5 \6/p' |
  sort -u)"

findings=0
check() {  # check RULE ERE
  local hits
  hits="$(grep -E -e "$2" <<<"$table" |
    sed "s/^\([^ ]*\) [A-Za-z] /$1: \1: /" | sort -u || true)"
  if [ -n "$hits" ]; then
    echo "$hits"
    findings=$((findings + $(wc -l <<<"$hits")))
  fi
}
check "D1 pointer-keyed ordered container" \
  'std::(_Rb_tree|(multi)?(map|set))<([^,<>]|<[^<>]*>)*\*[,>]'
check "D2 unordered container" 'std::(_Hashtable|unordered_(multi)?(map|set))<'
check "D3 host nondeterminism source" \
  '^[^ ]+ U ((rand|srand|drand48|time|clock|getenv|secure_getenv)$|.*_clock::now\(\)$|std::random_device::)'

echo "symbol check: $# files, $findings findings"
[ "$findings" -eq 0 ]
