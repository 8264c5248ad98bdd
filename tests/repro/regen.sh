#!/bin/sh
# Rewrites the `repro` goldens (ctest -L repro) from a built tree:
#   tests/repro/regen.sh [BUILD_DIR]      (default: build)
# One golden stdout per deterministic bench binary (every sh_add_bench in
# bench/CMakeLists.txt) plus the default `shsweep --threads 1` JSON. Run it
# only when a PR changes a default output on purpose, and say why.
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
build=${1:-build}
golden="$root/tests/repro"
benches=$(sed -n 's/^sh_add_bench(\(bench_[a-z0-9_]*\))$/\1/p' \
  "$root/bench/CMakeLists.txt")
for b in $benches; do
  "$build/bench/$b" > "$golden/$b.stdout"
done
"$build/tools/shsweep" --threads 1 --quiet --out "$golden/shsweep.json"
echo "regenerated $(echo "$benches" | wc -w) bench stdouts and shsweep.json"
