#!/usr/bin/env bash
# Hermetic CI gate. The workspace has zero external dependencies, so every
# step runs with --offline and needs nothing beyond a stock Rust toolchain.
#
#   ./ci.sh          run the full gate
#
# Steps:
#   1. cargo fmt --check                      formatting drift
#   2. cargo build --release --all-targets    everything compiles: libraries,
#                                             binaries, examples, test targets
#   3. cargo test -q                          the full suite: unit tests,
#                                             doctests, property suites, and
#                                             the root integration tests
#   4. fault-injection smoke                  the resilience suite re-run with
#                                             a dimension killed from the
#                                             environment (SMASH_FAILPOINTS);
#                                             then `smash analyze` with the
#                                             client dimension killed exits 0
#                                             with 0 campaigns and seven
#                                             dimension warnings, and with
#                                             whois killed still infers
#                                             campaigns, with one warning
#   5. cargo doc --no-deps                    rustdoc gate, warnings are errors
#   6. preprocess / re-mine diff              `smash preprocess` writes a
#                                             SMSHCOLS day, then analyzing the
#                                             day must print byte-identical
#                                             output to analyzing the raw
#                                             trace; then the day must fail
#                                             closed at the CLI: one flipped
#                                             payload byte, one byte cut off,
#                                             or the previous version number
#                                             are each refused by name, never
#                                             mined (DESIGN.md §12.4); and a
#                                             trace of many reader chunks
#                                             (day2011, ≈ 7.4 MB) preprocesses
#                                             to the same day file bytes as its
#                                             CRLF copy with blank lines added
#                                             (DESIGN.md §12.1); that day is
#                                             analyzed pinned to one CPU
#                                             (`taskset -c 0`: the loader's
#                                             threads all run inline) and
#                                             unpinned, with identical stdout
#                                             and report, and the three
#                                             refusals repeat pinned
#                                             (DESIGN.md §12.4); and under
#                                             `--idf 20` every server of every
#                                             multi-client campaign is a label
#                                             of the `--dot` graph
#   7. daemon smoke                           `smash serve --stdio`: ingest a
#                                             generated day, SIGKILL the daemon
#                                             mid-epoch via a failpoint, restart
#                                             on the same data dir, and verify
#                                             the recovered QUERY answer and
#                                             the whole REPORT are identical
#                                             to the no-crash run,
#                                             and that every request line got
#                                             exactly one reply; then delete
#                                             the no-crash run's snapshot.ckpt
#                                             and restart on its data dir: the
#                                             REPORT rebuilt from the WAL alone
#                                             must be identical too (DESIGN.md
#                                             §13.4)
#   8. reference benchmark                    the standalone benchmark/ package
#                                             (BENCHMARK.json's command; its own
#                                             workspace, path-deps on these
#                                             crates) passes its self-tests and a
#                                             --smoke run of every workload, so a
#                                             library API change that breaks it
#                                             fails here, not in the driver
#   9. hostile-line smoke                     one line of 200 000 `[` (deeper
#                                             than any stack) is one quarantined
#                                             line to `smash stats --lenient` and
#                                             `ERR bad-json` then `PONG` to
#                                             `smash serve --stdio`; both used to
#                                             abort the process (DESIGN.md §6)
#  10. examples                               all four examples/ run to completion
#  11. cargo clippy -D warnings               lint gate, skipped when the
#                                             toolchain ships without clippy
#  12. smash-lint --check-baseline            in-tree invariant linter; hard
#                                             gate against lint-baseline.json
#                                             (new violations fail, see
#                                             DESIGN.md §8)
#  13. cargo miri test -p smash-support       UB check of the support crate,
#                                             skipped with a notice when the
#                                             nightly/miri toolchain is absent
#  14. results/ golden                        `repro all --seed 7` regenerated
#                                             into a temp dir must `diff -r`
#                                             equal to the committed results/
#                                             (every table and figure of
#                                             EXPERIMENTS.md; runs with the
#                                             examples, before the lint steps)
#  15. CHANGES.md entry length                an entry is one line saying what
#                                             changed and what was deleted; a
#                                             line over 2 000 characters fails
#                                             (numbers live in EXPERIMENTS.md,
#                                             rationale in DESIGN.md; runs
#                                             right after the format check)
#  16. exact-vs-LSH smoke                     the campaigns `smash analyze`
#                                             prints for the step-6 trace are
#                                             identical with and without
#                                             `--exact` (one bucket of every
#                                             server against the MinHash
#                                             bands, DESIGN.md §10; runs
#                                             right after step 6)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> CHANGES.md entries (at most 2 000 characters a line)"
long="$(awk 'length($0) > 2000 { printf "CHANGES.md line %d: %d characters\n", NR, length($0) }' CHANGES.md)"
test -z "$long" || { echo "$long"; exit 1; }

echo "==> cargo build --release --offline --all-targets"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> fault-injection smoke (SMASH_FAILPOINTS=dimension/whois=panic)"
SMASH_FAILPOINTS=dimension/whois=panic cargo test -q --offline --test fault_injection
remine_dir="$(mktemp -d)"
trap 'rm -rf "$remine_dir"' EXIT
smash_bin="$(pwd)/target/release/smash"
"$smash_bin" generate small "$remine_dir/fault.jsonl" --seed 42 >/dev/null
# killed <site> <campaigns grep> <warnings>: analyze with <site> panicking
# exits 0, its stdout matches <campaigns grep>, and stderr names
# <warnings> dropped dimensions.
killed() {
    SMASH_FAILPOINTS="$1=panic" "$smash_bin" analyze "$remine_dir/fault.jsonl" \
        >"$remine_dir/fault.out" 2>"$remine_dir/fault.err" \
        || { echo "fault smoke: $1 killed the process"; cat "$remine_dir/fault.err"; exit 1; }
    grep -qE "$2" "$remine_dir/fault.out" \
        || { echo "fault smoke: $1: stdout lacks /$2/"; cat "$remine_dir/fault.out"; exit 1; }
    warnings="$(grep -c '^warning: dimension ' "$remine_dir/fault.err" || true)"
    test "$warnings" -eq "$3" \
        || { echo "fault smoke: $1: $warnings dimension warnings, expected $3"; exit 1; }
}
killed dimension/client '; 0 campaigns inferred$' 7
killed dimension/whois '; [1-9][0-9]* campaigns inferred$' 1

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "==> preprocess / re-mine diff (SMSHCOLS day vs raw trace)"
cargo run -q --release --offline --bin smash -- generate small "$remine_dir/trace.jsonl" --seed 42
cargo run -q --release --offline --bin smash -- preprocess "$remine_dir/trace.jsonl" "$remine_dir/trace.day"
cargo run -q --release --offline --bin smash -- analyze "$remine_dir/trace.jsonl" >"$remine_dir/raw.out"
cargo run -q --release --offline --bin smash -- analyze "$remine_dir/trace.day" >"$remine_dir/day.out"
diff -u "$remine_dir/raw.out" "$remine_dir/day.out"
# The DOT graph labels its nodes by the run's own IDF filter: under
# `--idf 20` every server of a multi-client campaign is a label.
"$smash_bin" analyze "$remine_dir/trace.jsonl" --idf 20 \
    --json "$remine_dir/idf20.json" --dot "$remine_dir/idf20.dot" >/dev/null
awk '/"servers": \[$/ { listing = 1; n = 0; next }
     listing && /\]/ { listing = 0; next }
     listing { gsub(/[ ",]/, ""); server[++n] = $0; next }
     /"client_count":/ { gsub(/[^0-9]/, ""); if ($0 > 1) for (i = 1; i <= n; i++) print server[i] }' \
    "$remine_dir/idf20.json" >"$remine_dir/idf20.multi"
sed -n 's/.*label="\([^"]*\)".*/\1/p' "$remine_dir/idf20.dot" >"$remine_dir/idf20.labels"
test -s "$remine_dir/idf20.multi" || { echo "dot smoke: no multi-client campaign"; exit 1; }
if grep -vxFf "$remine_dir/idf20.labels" "$remine_dir/idf20.multi"; then
    echo "dot smoke: the servers above are not labels of the --dot graph"; exit 1
fi
# refused <file> <message>: `smash analyze` must exit non-zero saying so
# (run under `$pin`, a CPU-pinning prefix, when one is set).
pin=""
refused() {
    if $pin "$smash_bin" analyze "$1" >/dev/null 2>"$remine_dir/refused.err"; then
        echo "day smoke: $1 was analyzed, expected: $2"; exit 1
    fi
    grep -qF "$2" "$remine_dir/refused.err" \
        || { echo "day smoke: $1 refused without \"$2\":"; cat "$remine_dir/refused.err"; exit 1; }
}
day_bytes="$(wc -c <"$remine_dir/trace.day")"
last="$(od -An -tu1 -j"$((day_bytes - 1))" -N1 "$remine_dir/trace.day")"
cp "$remine_dir/trace.day" "$remine_dir/flipped.day"
printf "\\$(printf '%03o' "$((last ^ 1))")" \
    | dd of="$remine_dir/flipped.day" bs=1 seek="$((day_bytes - 1))" conv=notrunc status=none
refused "$remine_dir/flipped.day" "day file corrupt: checksum mismatch"
head -c "$((day_bytes - 1))" "$remine_dir/trace.day" >"$remine_dir/short.day"
refused "$remine_dir/short.day" "day file corrupt"
cp "$remine_dir/trace.day" "$remine_dir/v2.day"
printf '\002\000\000\000' | dd of="$remine_dir/v2.day" bs=1 seek=8 conv=notrunc status=none
refused "$remine_dir/v2.day" "version 2 not supported (this build reads 3)"
# The step's trace is one 256 KiB reader chunk; day2011 is ≈ 30. Its
# CRLF copy, with a blank and a whitespace-only line every 100 records,
# moves every chunk edge, and must still give the same day, byte for byte.
"$smash_bin" generate day2011 "$remine_dir/day2011.jsonl" --seed 7 >/dev/null
awk '{ printf "%s\r\n", $0 } NR % 100 == 0 { printf "\r\n \t\n" }' \
    "$remine_dir/day2011.jsonl" >"$remine_dir/day2011.crlf.jsonl"
"$smash_bin" preprocess "$remine_dir/day2011.jsonl" "$remine_dir/day2011.day" >/dev/null
"$smash_bin" preprocess "$remine_dir/day2011.crlf.jsonl" "$remine_dir/day2011.crlf.day" >/dev/null
cmp "$remine_dir/day2011.day" "$remine_dir/day2011.crlf.day"
# Loading a day spreads the read, the checksum, the section decode and
# the validation over threads. Pinned to one CPU they all run inline: the
# output, the report (minus its timings) and every refusal must not move.
if command -v taskset >/dev/null; then
    for run in unpinned pinned; do
        if [ "$run" = pinned ]; then pin="taskset -c 0"; fi
        $pin "$smash_bin" analyze "$remine_dir/day2011.day" --json "$remine_dir/$run.json" \
            | sed "s|$remine_dir/$run.json|<report>|" >"$remine_dir/$run.out"
        sed -e '/^  "perf": {/,$d' -e '/"elapsed_ms":/d' "$remine_dir/$run.json" >"$remine_dir/$run.untimed"
    done
    cmp "$remine_dir/unpinned.out" "$remine_dir/pinned.out"
    cmp "$remine_dir/unpinned.untimed" "$remine_dir/pinned.untimed"
    refused "$remine_dir/flipped.day" "day file corrupt: checksum mismatch"
    refused "$remine_dir/short.day" "day file corrupt"
    refused "$remine_dir/v2.day" "version 2 not supported (this build reads 3)"
    pin=""
else
    echo "day smoke: taskset not found, skipping the one-CPU load comparison"
fi

echo "==> exact-vs-LSH smoke (the same campaigns with and without --exact)"
"$smash_bin" analyze "$remine_dir/trace.jsonl" --exact >"$remine_dir/exact.out"
grep -E '^(campaign #|  )' "$remine_dir/raw.out" >"$remine_dir/raw.campaigns"
grep -E '^(campaign #|  )' "$remine_dir/exact.out" >"$remine_dir/exact.campaigns"
test -s "$remine_dir/raw.campaigns" || { echo "exact smoke: no campaign inferred"; exit 1; }
diff -u "$remine_dir/raw.campaigns" "$remine_dir/exact.campaigns"

echo "==> daemon smoke (smash serve: WAL-only rebuild, crash mid-epoch, restart, identical answers)"
serve_dir="$remine_dir/serve"
mkdir -p "$serve_dir"
# Reference run: ingest the generated day, seal, wait for the publish,
# query one planted campaign member, exit cleanly.
{ sed 's/^/INGEST /' "$remine_dir/trace.jsonl"; printf 'SEAL\nWAIT\nREPORT\nSHUTDOWN\n'; } \
    >"$serve_dir/ref.in"
"$smash_bin" serve --stdio --data-dir "$serve_dir/ref" <"$serve_dir/ref.in" >"$serve_dir/ref.out"
# Replies are coalesced, never dropped or doubled: exactly one reply
# line per non-blank request line.
requests="$(grep -c '[^[:space:]]' "$serve_dir/ref.in")"
replies="$(wc -l <"$serve_dir/ref.out")"
test "$requests" -eq "$replies" \
    || { echo "daemon smoke: $requests requests got $replies replies"; exit 1; }
member="$(sed -n 's/.*"servers":\["\([^"]*\)".*/\1/p' "$serve_dir/ref.out" | head -1)"
test -n "$member" || { echo "daemon smoke: no campaign member in reference run"; exit 1; }
printf 'QUERY %s\nSHUTDOWN\n' "$member" \
    | "$smash_bin" serve --stdio --data-dir "$serve_dir/ref" | grep '^HIT ' >"$serve_dir/ref.hit"
# WAL-only rebuild: without the durable snapshot, the restart re-mines
# every sealed epoch from the WAL and must publish the same campaigns.
rm "$serve_dir/ref/snapshot.ckpt"
printf 'WAIT\nREPORT\nSHUTDOWN\n' \
    | "$smash_bin" serve --stdio --data-dir "$serve_dir/ref" >"$serve_dir/rebuilt.out"
diff -u <(grep '^\[' "$serve_dir/ref.out") <(grep '^\[' "$serve_dir/rebuilt.out")
# Crash run: the armed failpoint aborts the daemon right after the epoch
# WAL becomes durable (the SIGKILL stand-in) — the seal is never
# acknowledged and no snapshot is written.
if { sed 's/^/INGEST /' "$remine_dir/trace.jsonl"; printf 'SEAL\nWAIT\n'; } \
    | SMASH_FAILPOINTS=serve/after/seal=abort "$smash_bin" serve --stdio --data-dir "$serve_dir/crash" \
    >/dev/null 2>&1; then
    echo "daemon smoke: crash run did not crash"; exit 1
fi
# Restart on the crashed data dir: the WAL replays, the miner re-mines,
# and the recovered answers must be identical to the reference: the
# queried member's HIT and the whole campaign list (REPORT), so a replay
# that absorbs differently from live ingest fails on any campaign.
printf 'WAIT\nQUERY %s\nREPORT\nSHUTDOWN\n' "$member" \
    | "$smash_bin" serve --stdio --data-dir "$serve_dir/crash" >"$serve_dir/crash.out"
grep '^HIT ' "$serve_dir/crash.out" >"$serve_dir/crash.hit"
diff -u "$serve_dir/ref.hit" "$serve_dir/crash.hit"
diff -u <(grep '^\[' "$serve_dir/ref.out") <(grep '^\[' "$serve_dir/crash.out")

echo "==> reference benchmark (benchmark/: self-tests + --smoke)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke >/dev/null

echo "==> hostile-line smoke (deep nesting: quarantined by the CLI, ERR bad-json from the daemon)"
deep="$(head -c 200000 /dev/zero | tr '\0' '[')"
{ cat "$remine_dir/trace.jsonl"; echo "$deep"; } >"$remine_dir/hostile.jsonl"
"$smash_bin" stats "$remine_dir/hostile.jsonl" --lenient >/dev/null 2>"$remine_dir/hostile.err"
grep -q 'quarantined 1 of ' "$remine_dir/hostile.err"
test "$(wc -l <"$remine_dir/hostile.jsonl.quarantine")" -eq 1
# Under the daemon's 64 KiB wire cap, so it reaches the decoder.
printf 'INGEST %s\nPING\nSHUTDOWN\n' "${deep:0:60000}" \
    | "$smash_bin" serve --stdio --data-dir "$serve_dir/hostile" >"$serve_dir/hostile.out"
diff -u <(printf 'ERR bad-json\nPONG\nOK\n') "$serve_dir/hostile.out"

echo "==> examples build and run"
for ex in quickstart campaign_discovery weekly_monitoring custom_trace; do
    echo "    --example $ex"
    cargo run -q --release --offline --example "$ex" >/dev/null
done

echo "==> results/ golden (repro all --seed 7 vs the committed outputs)"
cargo run -q --release --offline -p smash-eval --bin repro -- all --seed 7 --out "$remine_dir/results" >/dev/null
diff -r results "$remine_dir/results"

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint gate"
fi

echo "==> smash-lint --check-baseline (invariant ratchet)"
cargo run -q --release --offline -p smash-lint -- . --check-baseline

if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "==> cargo +nightly miri test -p smash-support"
    cargo +nightly miri test -q -p smash-support
else
    echo "==> miri not installed (needs nightly + rustup component); skipping UB check"
fi

echo "==> ci.sh: all green"
