#!/bin/sh
# A quick tour of the command-line interface. Run from the repo root
# after `pip install -e . --no-build-isolation`.
set -e

cd "$(dirname "$0")/.."
OUT=$(mktemp -d)

echo '== compile: emit classical PDDL plus the fluent map and report =='
python3 -m pdkb.cli compile benchmarks/envelope/envelope.pdkbddl --out "$OUT"
ls "$OUT"

echo
echo '== solve: internal search, written plan, semantic validation =='
python3 -m pdkb.cli solve benchmarks/envelope/envelope.pdkbddl --out "$OUT"
cat "$OUT/plan.txt"

echo
echo '== validate --plan: the plan file solve wrote, read back =='
python3 -m pdkb.cli validate benchmarks/envelope/envelope.pdkbddl \
    --plan "$OUT/plan.txt" > /dev/null && echo 'exit 0: StrongValid'

echo
echo '== solve (FOND): AND-OR search, written policy, semantic verification =='
python3 -m pdkb.cli solve benchmarks/misc/lossy-3ag-2l.pdkbddl --out "$OUT"
grep '"classification"' "$OUT/policy.json"

echo
echo '== validate: the plan embedded in the problem file =='
python3 -m pdkb.cli validate benchmarks/envelope/envelope.pdkbddl --out "$OUT" \
    && echo 'exit 0: StrongValid'

echo
echo '== query: does a belief base entail a formula? =='
FIXTURE=$(mktemp)
printf 'B_a secret\nB_a B_b secret\n' > "$FIXTURE"
python3 -m pdkb.cli query "$FIXTURE" 'P_a secret' && echo 'exit 0: entailed'
python3 -m pdkb.cli query "$FIXTURE" 'B_b secret' || echo "exit $?: not entailed"

echo
echo '== closure: everything a base entails =='
python3 -m pdkb.cli closure "$FIXTURE"

rm -rf "$OUT" "$FIXTURE"
