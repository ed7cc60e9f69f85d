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
  diff -r fresh/corpus s/corpus
  # serve.jsonl on a full device fails as the first worker is attached;
  # reaping the workers journals again while that error unwinds.
  mkdir -p full/journal
  ln -s /dev/full full/journal/serve.jsonl
  Code=0
  "$M" serve $W --workers 2 --store full > /dev/null 2> err.txt || Code=$?
  test "$Code" -eq 5
  grep -q 'serve.jsonl' err.txt
  ;;
*)
  echo "unknown case $2" >&2
  exit 2
  ;;
esac
