#!/bin/sh
# Command-line checks of `minispv` that need several runs over a scratch
# store. Usage: MinispvCliTest.sh <minispv> <case>; the store is made in a
# temporary directory under the working directory and removed after.
set -eu
M="$1"
Dir="$(mktemp -d "$PWD/minispv-cli.XXXXXX")"
trap 'rm -rf "$Dir"' EXIT
cd "$Dir"
W="--tests 24 --seed 5 --dedup --deterministic-journal"

# Runs minispv with the arguments after the first and fails the case
# unless it exits with the code the first one names.
expect_exit() {
  Want="$1"
  shift
  Code=0
  "$M" "$@" > /dev/null 2>&1 || Code=$?
  if [ "$Code" -ne "$Want" ]; then
    echo "minispv $*: exit $Code, expected $Want" >&2
    exit 1
  fi
}

case "$2" in
db-show-old-meta)
  # Stores written before `db show` rendered the attribution from
  # repro.msb kept it as meta.json's last key. Such a meta.json shows
  # exactly as the store's own rendering, with the key once.
  "$M" campaign --tests 8 --seed 5 --dedup --triage --store s \
    > /dev/null 2>&1
  for Bucket in $(ls s/bugs); do
    "$M" db show "$Bucket" --store s > rendered.txt
    sed '/^--- reduced reproducer ---$/,$d' rendered.txt | sed '$d' \
      > "s/bugs/$Bucket/meta.json"
    "$M" db show "$Bucket" --store s > old.txt
    cmp rendered.txt old.txt
    test "$(grep -c '"attribution"' old.txt)" -eq 1
  done
  ;;
serve-write-fault)
  "$M" campaign $W --store fresh > fresh.txt 2> /dev/null
  # A file-size limit (SIGXFSZ ignored, so a write past it fails with
  # EFBIG) stops the run while its workers hold waves: exit 5 naming the
  # file, and --resume finishes it as a fresh store would.
  Code=0
  (trap '' XFSZ; ulimit -f 8; "$M" serve $W --workers 2 --store s \
    > /dev/null 2> err.txt) || Code=$?
  test "$Code" -eq 5
  grep -q 'events.jsonl' err.txt
  "$M" serve $W --workers 2 --store s --resume > resumed.txt 2> /dev/null
  cmp fresh.txt resumed.txt
  cmp fresh/journal/events.jsonl s/journal/events.jsonl
  diff -r fresh/bugs s/bugs
  # serve.jsonl on a full device fails as the first worker is attached;
  # reaping the workers journals again while that error unwinds.
  mkdir -p full/journal
  ln -s /dev/full full/journal/serve.jsonl
  Code=0
  "$M" serve $W --workers 2 --store full > /dev/null 2> err.txt || Code=$?
  test "$Code" -eq 5
  grep -q 'serve.jsonl' err.txt
  ;;
report-store-exit-codes)
  # report --store tells a store (a checkpoint/*.ckpt name) from any other
  # directory, then reads only its metrics.json.
  "$M" campaign --tests 4 --seed 5 --limit 60 --store s > /dev/null 2>&1
  cp -r s no-metrics
  rm no-metrics/checkpoint/metrics.json
  cp -r s bad-metrics
  echo '{"counters": [' > bad-metrics/checkpoint/metrics.json
  mkdir -p empty/checkpoint
  expect_exit 2 report --store missing
  expect_exit 2 report --store empty
  expect_exit 1 report --store no-metrics
  expect_exit 1 report --store bad-metrics
  expect_exit 0 report --store s
  ;;
report-compare-exact)
  # --exact gates on work: a listed counter raised by one exits 4 even
  # under --warn-only, which still forgives a timing regression.
  cat > base.json <<'EOF'
{
  "counters": {
    "exec.runs": 4096,
    "fuzzer.applications.SplitBlock": 290,
    "fuzzer.attempts.SplitBlock": 292
  },
  "gauges": {
    "bench.wall_seconds": 0.25
  },
  "histograms": {}
}
EOF
  awk -F': ' '/"fuzzer.applications.SplitBlock":/ {
    sub(/,$/, "", $2); $0 = $1 ": " ($2 + 1) "," } { print }' \
    base.json > drift.json
  grep -q '"fuzzer.applications.SplitBlock": 291,' drift.json
  sed 's/"bench.wall_seconds": [0-9.]*/"bench.wall_seconds": 9/' \
    base.json > slow.json
  expect_exit 0 report --compare base.json base.json --exact 'fuzzer.*'
  expect_exit 4 report --compare base.json drift.json --exact 'fuzzer.*'
  expect_exit 4 report --compare base.json drift.json --warn-only \
    --exact exec.runs,fuzzer.applications.SplitBlock
  expect_exit 0 report --compare base.json drift.json --warn-only
  expect_exit 4 report --compare base.json slow.json --exact 'fuzzer.*'
  expect_exit 0 report --compare base.json slow.json --warn-only \
    --exact 'fuzzer.*'
  expect_exit 4 report --compare base.json base.json --exact 'replay.*'
  expect_exit 1 report --compare base.json base.json --exact ,
  Code=0
  "$M" report --compare base.json drift.json --exact 'exec.*,fuzzer.*' \
    > out.txt 2> err.txt || Code=$?
  test "$Code" -eq 4
  grep -q "'fuzzer.applications.SplitBlock' differs: base 290, current 291" \
    err.txt
  grep -q 'exact counters: 3 compared, 1 mismatch' out.txt
  ;;
retriage-keeps-repros)
  # A re-triage that reaches the stored verdicts writes nothing: every
  # repro.msb keeps its inode, which an atomic rewrite would replace.
  "$M" campaign --tests 8 --seed 5 --dedup --triage --store s \
    > /dev/null 2>&1
  ls -i s/bugs/*/repro.msb > before.txt
  test -s before.txt
  "$M" triage --store s > /dev/null
  ls -i s/bugs/*/repro.msb > after.txt
  cmp before.txt after.txt
  ;;
reduce-readme-example)
  # README.md's "Command-line tool" example: the paper's Figure 3, one
  # attribute flip, reduced from a 75-transformation sequence.
  "$M" gen --seed 7 -o prog.mvs > /dev/null
  "$M" gen --seed 900 -o donor.mvs > /dev/null
  "$M" fuzz prog.mvs --inputs prog.mvs.in --seed 2 -o variant.mvs \
    --sequence seq.txt --donor donor.mvs > fuzz.txt
  grep -qFx 'applied 75 transformations: 372 -> 521 instructions' fuzz.txt
  Code=0
  "$M" run variant.mvs --inputs prog.mvs.in --target SwiftShader \
    > run.txt || Code=$?
  test "$Code" -eq 2
  grep -qFx 'SwiftShader: CRASH: inliner: unexpected DontInline attribute' \
    run.txt
  Reduce="reduce prog.mvs --inputs prog.mvs.in --sequence seq.txt
    --target SwiftShader -o reduced.mvs --out-sequence min.txt"
  "$M" $Reduce --signature "inliner: unexpected DontInline attribute" \
    > reduce.txt
  grep -qFx -e "reduced to 1 transformations in 21 checks; delta vs \
original: +0 instructions" reduce.txt
  grep -qFx -e '- %15 = OpFunction %1 None %14' reduce.txt
  grep -qFx -e '+ %15 = OpFunction %1 DontInline %14' reduce.txt
  # A reduction runs serially: there is no --jobs to set.
  expect_exit 1 $Reduce --signature "inliner: unexpected DontInline attribute" \
    --jobs 2
  ;;
validate-malformed-operands)
  # Modules the assembler accepts whose operands have the wrong shape:
  # validate reports each with a diagnostic and exits 1, never crashes.
  Fn='%3 = OpFunction %1 None %2'
  Label='%4 = OpLabel'
  # Validates the module read from stdin; it must exit 1 with the
  # diagnostic the first argument names.
  expect_diagnostic() {
    cat > m.mvs
    Code=0
    "$M" validate m.mvs > /dev/null 2> err.txt || Code=$?
    if [ "$Code" -ne 1 ] || ! grep -qFx "m.mvs: $1" err.txt; then
      echo "validate: exit $Code, expected 1 with '$1':" >&2
      cat err.txt >&2
      exit 1
    fi
  }
  printf '%s\n' 'OpEntryPoint %3' '%1 = OpTypeVoid' '%2 = OpTypeFunction %1' \
    '%3 = OpFunction %1 None' "$Label" OpReturn OpFunctionEnd |
    expect_diagnostic 'function %3: malformed OpFunction'
  printf '%s\n' 'OpEntryPoint %3' '%1 = OpTypeVoid' '%2 = OpTypeFunction' \
    "$Fn" "$Label" OpReturn OpFunctionEnd |
    expect_diagnostic 'malformed OpTypeFunction'
  printf '%s\n' 'OpEntryPoint %3' '%1 = OpTypeVoid' '%2 = OpTypeFunction %1' \
    '%5 = OpTypeInt 32' '%6 = OpTypePointer Private' \
    '%7 = OpVariable %6 Private' "$Fn" "$Label" OpReturn OpFunctionEnd |
    expect_diagnostic 'OpVariable result type must be a pointer'
  printf '%s\n' 'OpEntryPoint %3' '%1 = OpTypeVoid' '%2 = OpTypeFunction %1' \
    "$Fn" "$Label" OpBranch '%8 = OpLabel' OpReturn OpFunctionEnd |
    expect_diagnostic 'OpBranch in block %4: expected 1 operands'
  printf '%s\n' 'OpEntryPoint %3' '%1 = OpTypeVoid' '%2 = OpTypeFunction %1' \
    '%5 = OpTypeBool' '%6 = OpConstantTrue %5' "$Fn" "$Label" \
    'OpBranchConditional %6 %8' '%8 = OpLabel' OpReturn OpFunctionEnd |
    expect_diagnostic 'OpBranchConditional in block %4: expected 3 operands'
  ;;
invalid-modules)
  # run, fuzz (the module and every donor), replay and reduce work only on
  # modules that validate accepts. An OpBranch without its label (which
  # crashed them) and an id past SPIR-V's bound (whose id table could not
  # be allocated) exit 1 with validate's diagnostic, before any work.
  "$M" gen --seed 7 -o prog.mvs > /dev/null
  echo 'AddConstantScalar fresh=500 irrelevant=1 type=2 word=0' > seq.txt
  : > empty.in
  Head='OpEntryPoint %3
%1 = OpTypeVoid
%2 = OpTypeFunction %1
%3 = OpFunction %1 None %2'
  printf '%s\n' "$Head" '%4 = OpLabel' OpBranch '%8 = OpLabel' OpReturn \
    OpFunctionEnd > branch.mvs
  printf '%s\n' "$Head" '%4000000000 = OpLabel' OpReturn OpFunctionEnd \
    > bound.mvs
  for F in branch bound; do
    if [ "$F" = branch ]; then
      Diag='OpBranch in block %4: expected 1 operands'
    else
      Diag='id bound 4000000001 exceeds the limit 4194303'
    fi
    for Cmd in "run $F.mvs --inputs empty.in" \
        "fuzz $F.mvs --inputs empty.in --seed 1 -o out.mvs --sequence out.txt" \
        "fuzz prog.mvs --inputs prog.mvs.in --seed 1 -o out.mvs
          --sequence out.txt --donor $F.mvs" \
        "replay $F.mvs --inputs empty.in --sequence seq.txt -o out.mvs" \
        "reduce $F.mvs --inputs empty.in --sequence seq.txt
          --target SwiftShader --signature none -o out.mvs
          --out-sequence out.txt"; do
      Code=0
      "$M" $Cmd > /dev/null 2> err.txt || Code=$?
      if [ "$Code" -ne 1 ] || ! grep -qFx "$F.mvs: $Diag" err.txt ||
          [ -e out.mvs ]; then
        echo "minispv $Cmd: exit $Code, expected 1 with '$Diag':" >&2
        cat err.txt >&2
        exit 1
      fi
    done
  done
  ;;
*)
  echo "unknown case $2" >&2
  exit 2
  ;;
esac
