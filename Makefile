# Convenience wrappers around dune; `make check` is the CI entry point:
# build + full test suite + the benchmark smoke pass (tiny sizes) + the
# chaos/stress pass (fault injection, crash containment, resource
# guards) + the native backend pass (emitted C compiled and diffed
# against the interpreter) + the profiler and explain JSON contracts, so
# neither the perf plumbing of bench/ nor the `mmc profile --json` /
# `mmc explain --json` schemas can bit-rot silently.

.PHONY: all test golden-check bench bench-smoke bench-compare stress native-check native-faults-check profile-check profile-native-check explain-check warm-check tmp-check check clean

all:
	dune build

test:
	dune runtest

# Oracle drift check: regenerate the golden fixtures into a temporary
# directory and fail if they differ from the committed test/golden/.
# The golden suite reads the committed .mc files, so only this catches a
# fixture edited by hand or drifted from Eddy.Programs or examples/.
golden-check: all
	@d=$$(mktemp -d) && \
	dune exec test/golden_gen.exe -- $$d > /dev/null || { rm -rf $$d; exit 1; }; \
	if diff -r test/golden $$d; then \
	  rm -rf $$d; echo "golden-check: OK"; \
	else \
	  rm -rf $$d; \
	  echo "golden-check: FAIL (re-bless: dune exec test/golden_gen.exe -- test/golden)"; \
	  exit 1; \
	fi

# Full benchmark sweep; writes BENCH_native.json and BENCH_telemetry.json.
bench:
	dune exec bench/main.exe

# Seconds, not minutes: the C5 fork-join group at tiny sizes (a few pool
# regions against the spawn-per-region baseline) and C6's one- and
# two-domain RC legs, which fail unless the ledger ends exact.
bench-smoke:
	dune build @bench-smoke

# Regression gate: re-measure the C12 and C13 native rows the full sweep
# wrote to BENCH_native.json and exit non-zero if any is >25% slower.
bench-compare: all
	dune exec bench/main.exe -- --compare BENCH_native.json

# Chaos/stress pass: the interpreter's `faults` group only (the native
# one is native-faults-check) — every failpoint through real programs,
# sequential and parallel (a fired fault fails the run once, with one
# diagnostic and no leak), pool crash containment and the cooperative
# resource guards.  Each case runs under a hard SIGALRM deadline inside
# the suite, so a containment bug fails fast instead of hanging CI.
stress:
	dune build @stress-smoke

# Native backend pass: compile every corpus program's emitted C with the
# system compiler and diff it against the interpreter bit-for-bit (plus
# binary-cache, --keep-c and -Werror cases).  Each case skips with a
# visible notice when no C compiler is installed, so the target always
# succeeds on compiler-less machines without hiding that nothing ran.
native-check:
	dune build @native-check

# Supervised-execution pass: failed subscript and shape checks and
# failed allocations, matrix-file operations and integer divisions (one
# report, the interpreter's, at its span, in both backends), native
# failpoints (MM_FAILPOINTS), supervisor timeout/rlimit
# kills, sanitizer builds and the 8-cell native fault matrix (same
# outcome at 1 and 2 threads) — all against real compiled binaries.
# Each case skips with a visible notice when no C compiler is
# installed.
native-faults-check:
	dune build @native-faults-check

# Run the source-attributed profiler on an example and validate the
# machine-readable output against the schema checker in the bench binary.
profile-check: all
	dune exec bin/mmc.exe -- profile examples/eddy_energy.mc --json \
	  > _build/profile_check.json
	dune exec bench/main.exe -- --check-profile-json _build/profile_check.json

# Same contract for the native profiler: compile an example with
# instrumentation, run it, and validate `mmc profile --native --json`
# against the same schema checker — so the interpreted and native
# reports cannot drift apart.  Skips with a notice when no C compiler
# is installed, mirroring the native-check convention.
profile-native-check: all
	@if command -v $${MMC_CC:-cc} >/dev/null 2>&1; then \
	  dune exec bin/mmc.exe -- profile examples/eddy_energy.mc --native --json \
	    > _build/profile_native_check.json && \
	  dune exec bench/main.exe -- --check-profile-json _build/profile_native_check.json; \
	else \
	  echo "profile-native-check: SKIP (no C compiler: $${MMC_CC:-cc} not found)"; \
	fi

# Collect optimization remarks for an example and validate the
# machine-readable output against the schema checker in the bench binary.
explain-check: all
	dune exec bin/mmc.exe -- explain examples/transform_tiling.mc --json \
	  > _build/explain_check.json
	dune exec bench/main.exe -- --check-explain-json _build/explain_check.json

# Warm-cache contract: re-running an unchanged program goes through the
# exec index straight to its cached binary, so its --stats must show a
# binary-cache hit, a native.index row for the index lookup, and no
# composition, frontend, lowering, emission, toolchain probe or C
# compile.  The cold run compiles first and probes only after a failed
# compile, so it must show a native.compile row and no native.probe
# row, and leave one loader (mm_loader-*) and one program (mm_*.so) in
# the cache: no executable and no runtime object.  A copy with a blank
# line appended misses the index (it parses again) but still hits the
# binary cache.  Skips with a notice when no C compiler is installed.
warm-check: all
	@if command -v $${MMC_CC:-cc} >/dev/null 2>&1; then \
	  d=$$(mktemp -d) && \
	  cp examples/eddy_energy.mc $$d/edited.mc && echo >> $$d/edited.mc && \
	  for run in cold:examples/eddy_energy.mc warm:examples/eddy_energy.mc \
	      whitespace:$$d/edited.mc; do \
	    ./_build/default/bin/mmc.exe exec --stats --cache-dir $$d/cache \
	      $${run#*:} > /dev/null 2> $$d/$${run%%:*}.stats || { rm -rf $$d; exit 1; }; \
	    ls $$d/cache > $$d/$${run%%:*}.ls; \
	  done; \
	  if ! grep -q 'native.run ' $$d/warm.stats; then \
	    echo "warm-check: FAIL (no --stats summary)"; rm -rf $$d; exit 1; \
	  elif ! grep -q 'native.compile ' $$d/cold.stats; then \
	    echo "warm-check: FAIL (the cold run did not compile)"; rm -rf $$d; exit 1; \
	  elif grep -q 'native.probe ' $$d/cold.stats; then \
	    echo "warm-check: FAIL (the cold run probed the toolchain)"; rm -rf $$d; exit 1; \
	  elif [ "$$(grep -c '^mm_loader-' $$d/cold.ls)" != 1 ] \
	      || [ "$$(grep -c '^mm_.*\.so$$' $$d/cold.ls)" != 1 ] \
	      || grep -qE '^mm_.*\.exe$$|^mm_runtime-.*\.o$$' $$d/cold.ls; then \
	    echo "warm-check: FAIL (the cold run did not leave one loader and one program:" \
	      $$(cat $$d/cold.ls)")"; rm -rf $$d; exit 1; \
	  elif grep -E '(driver\.compose|frontend\.parse|driver\.lower|driver\.emit|native\.probe|native\.compile) ' $$d/warm.stats; then \
	    echo "warm-check: FAIL (warm run translated, probed or compiled)"; rm -rf $$d; exit 1; \
	  elif ! grep -qE 'cache\.hit +1$$' $$d/warm.stats; then \
	    echo "warm-check: FAIL (warm run missed the binary cache)"; rm -rf $$d; exit 1; \
	  elif ! grep -q 'native.index ' $$d/warm.stats; then \
	    echo "warm-check: FAIL (no native.index row for the index lookup)"; rm -rf $$d; exit 1; \
	  elif ! grep -q 'frontend.parse ' $$d/whitespace.stats; then \
	    echo "warm-check: FAIL (a whitespace edit hit the index)"; rm -rf $$d; exit 1; \
	  elif grep -q 'native.compile ' $$d/whitespace.stats; then \
	    echo "warm-check: FAIL (a whitespace edit missed the binary cache)"; rm -rf $$d; exit 1; \
	  fi; \
	  rm -rf $$d; echo "warm-check: OK"; \
	else \
	  echo "warm-check: SKIP (no C compiler: $${MMC_CC:-cc} not found)"; \
	fi

# Scratch-directory contract: without --data-dir, `mmc run`, `mmc exec`
# and `mmc profile` put the program's matrix files in a temporary
# directory and remove it when they end.  Runs each on an example with
# TMPDIR pointing at a fresh, empty directory (exec's binary cache kept
# outside it) and fails if anything is left there.  With --data-dir D
# holding Fig 1's input and two decoys named mm_crash.txt and
# mm_profile.json, `mmc exec`, `mmc profile` and `mmc profile --native`
# must each leave D holding exactly the input and the decoys, unchanged
# byte for byte, and the program's output.  The native legs skip with a
# notice when no C compiler is installed.
tmp-check: all
	@d=$$(mktemp -d) && mkdir $$d/tmp $$d/data $$d/keep && \
	mmc=./_build/default/bin/mmc.exe && \
	for cmd in run profile; do \
	  TMPDIR=$$d/tmp $$mmc $$cmd \
	    examples/eddy_energy.mc > /dev/null || { rm -rf $$d; exit 1; }; \
	done; \
	if command -v $${MMC_CC:-cc} >/dev/null 2>&1; then \
	  native="exec: profile:--native"; \
	  TMPDIR=$$d/tmp $$mmc exec --cache-dir $$d/cache \
	    examples/eddy_energy.mc > /dev/null || { rm -rf $$d; exit 1; }; \
	else \
	  native=; \
	  echo "tmp-check: exec SKIP (no C compiler: $${MMC_CC:-cc} not found)"; \
	fi; \
	left=$$(ls -A $$d/tmp); \
	if [ -n "$$left" ]; then \
	  echo "tmp-check: FAIL (left in TMPDIR: $$left)"; rm -rf $$d; exit 1; \
	fi; \
	echo 'int main() { Matrix float <3> c = with ([0,0,0] <= [i,j,k] < [4,5,6]) genarray([4,5,6], (float) (i + j * k)); writeMatrix("ssh.data", c); return 0; }' \
	  > $$d/gen.mc && \
	$$mmc run --data-dir $$d/data $$d/gen.mc > /dev/null && \
	echo 'a crash span' > $$d/data/mm_crash.txt && \
	echo '{"a": "profile"}' > $$d/data/mm_profile.json && \
	cp $$d/data/* $$d/keep/ || { rm -rf $$d; exit 1; }; \
	for run in profile: $$native; do \
	  rm -f $$d/data/means.data; \
	  $$mmc $${run%%:*} $${run#*:} --data-dir $$d/data --cache-dir $$d/cache \
	    test/golden/fig1_temporal_mean.mc > /dev/null || { rm -rf $$d; exit 1; }; \
	  held=$$(ls -A $$d/data | tr '\n' ' '); \
	  if [ "$$held" != "means.data mm_crash.txt mm_profile.json ssh.data " ]; then \
	    echo "tmp-check: FAIL (mmc $${run%%:*} $${run#*:} left the data dir holding: $$held)"; \
	    rm -rf $$d; exit 1; \
	  fi; \
	  for f in ssh.data mm_crash.txt mm_profile.json; do \
	    cmp -s $$d/keep/$$f $$d/data/$$f || { \
	      echo "tmp-check: FAIL (mmc $${run%%:*} $${run#*:} changed $$f in the data dir)"; \
	      rm -rf $$d; exit 1; }; \
	  done; \
	done; \
	rm -rf $$d; echo "tmp-check: OK"

check: all test golden-check bench-smoke stress native-check native-faults-check profile-check profile-native-check explain-check warm-check tmp-check

clean:
	dune clean
