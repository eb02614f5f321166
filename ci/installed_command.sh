#!/usr/bin/env bash
# The installed command as a user runs it: gate tables, refusals, growth and
# the pinned JSONL digests.  QUBUSLAB names the command (default: qubuslab);
# tests/test_ci_scripts.py runs this script with "python -m qubuslab.cli".
# Output is captured in files before it is grepped, so a grep that stops
# reading early cannot break a pipe under pipefail.
set -euo pipefail
QUBUSLAB=${QUBUSLAB:-qubuslab}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# the suite passes, printing one flag: line for each flagged quoted constant
# and for each printed growth law that criterion 7's table flags
$QUBUSLAB verify --quick > "$tmp/verify.txt"
for name in minimal-build-cost-p-1/2 vertical-ops-p-1/2 vacuum-error-alpha-theta-2 \
            merge-ops-p-0.75 dc-survivors-p-0.5 dc-survivors-p-0.75; do
  test "$(grep -c "^    flag: $name: " "$tmp/verify.txt")" -eq 1
done
test "$(tail -n 1 "$tmp/verify.txt")" = "result: all criteria pass (flags are expected findings)"
$QUBUSLAB gate three-qubit
# cascade tables at both separations, as the per-peak projection printed them
$QUBUSLAB gate cascade --n 12 > "$tmp/c12.txt"
$QUBUSLAB gate cascade --n 10 --alpha 3 --theta 0.3 > "$tmp/c10.txt"
echo "4266b5c8a39b8e6e346954263c4e52877771cddfe5b2bf9fb277a1f5b42bbb02  $tmp/c12.txt
19a4fa6364d4f37737dd4fb63fb68ff0954dd8a635f4b336f87e6c3432cbacb5  $tmp/c10.txt" | sha256sum -c -
$QUBUSLAB gate cascade --n 3 --alpha 1 --theta 0 > "$tmp/out.txt"
grep -q "pair success: 0" "$tmp/out.txt"
# each branch's bus turns once, so at large alpha the odd-Bell peak stays
# whole with no correction and the 6-qubit cascade keeps its 31/32
$QUBUSLAB gate parity-momentum --alpha 1e7 --theta 0.5 > "$tmp/out.txt"
grep -qE "^odd-bell +0\.500000000 1\.00000000 *$" "$tmp/out.txt"
$QUBUSLAB gate cascade --n 6 --alpha 1e10 --theta 0.3 > "$tmp/out.txt"
grep -q "^pair success: 31/32 " "$tmp/out.txt"
# a ValueError raised in a command ends in one Error: line and exit 1
status=0; $QUBUSLAB gate cascade --n 1 > "$tmp/err.txt" 2>&1 || status=$?
test "$status" -eq 1
grep -q "^Error:" "$tmp/err.txt"
if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
$QUBUSLAB gate three-qubit --theta -0.003
# bucket tables: seven resolved rows, each reaching its Bell state, and a click
# row; the resolved table (less its "wrote" line) and its CSV as the solver
# printed them one row at a time
$QUBUSLAB gate parity-bucket --alpha 2 --theta 0.4 --number-resolving --csv "$tmp/bucket.csv" \
  > "$tmp/bucket.txt"
grep -v '^wrote ' "$tmp/bucket.txt" > "$tmp/bucket-table.txt"
echo "ba6bff07a634e7221bba45334c81f5bc6e9e23551990057d636b46f19202a024  $tmp/bucket-table.txt
3a9793fb31a2710b6393c436ae29002dcb69e59fcb4802dcd87394c86f6645b5  $tmp/bucket.csv" | sha256sum -c -
test "$(grep -cE '^(odd-bell|even-bell-[0-9]+) ' "$tmp/bucket.txt")" -eq 7
for label in odd-bell even-bell-1 even-bell-2 even-bell-3 even-bell-4 even-bell-5 even-bell-6; do
  grep -qE "^$label +[0-9.]+ 1\.00000000( |\$)" "$tmp/bucket.txt"
done
$QUBUSLAB gate parity-bucket > "$tmp/bucket.txt"
grep -q "^click " "$tmp/bucket.txt"
# 14-qubit displacement programs close every loop and make the graph state
# (the geometric-cz loop is always two qubits and refuses --n)
for shape in "star --n 14" "chain --n 14" geometric-cz; do
  $QUBUSLAB gate $shape > "$tmp/out.txt"
  grep -qx "stabilizer check: PASS" "$tmp/out.txt"
  grep -qx "bus spread after sequence: 0.0" "$tmp/out.txt"
done
# a star checked against the chain's edges is a FAIL line and exit 1
printf '0 1\n1 2\n2 3\n3 4\n' > "$tmp/chain5.txt"
status=0; $QUBUSLAB gate star --n 5 --graph "$tmp/chain5.txt" > "$tmp/out.txt" 2>&1 || status=$?
test "$status" -eq 1
grep -qx "stabilizer check: FAIL" "$tmp/out.txt"
if grep -q Traceback "$tmp/out.txt"; then exit 1; fi
# a beta off the controlled-Z grid is one Error: line and exit 1; beta 0
# gives every pair a zero coupling, which an edge must not accept
for gate in "chain --n 4" "star --n 4" "geometric-cz"; do
  for beta in 0.3 0; do
    status=0; $QUBUSLAB gate $gate --beta $beta > "$tmp/err.txt" 2>&1 || status=$?
    test "$status" -eq 1
    grep -q "^Error:" "$tmp/err.txt"
    if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
  done
done
# a config-file number is checked, not coerced: n = 4.7 is refused
echo '{"n": 4.7}' > "$tmp/n.json"
status=0; $QUBUSLAB gate chain --config "$tmp/n.json" > "$tmp/err.txt" 2>&1 || status=$?
test "$status" -eq 1
grep -q "^Error:" "$tmp/err.txt"
if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
# divide and conquer takes one round count, a series must have a value at
# the chosen metric that fits a float, a register must fit the dense path,
# and a config file may hold only keys the command reads: one Error: line
echo '{"bogus": 1, "gate_backend": "nope"}' > "$tmp/keys.json"
# and a gate table whose squares (alpha theta)**2, alpha**2, or the bucket's
# (2 alpha sin theta)**2 overflow a float is refused too, as is a scaling
# gate time that is not finite and > 0 or that makes a series value
# overflow, a length range that starts below 1, a scaling request with no
# series or no row in its range (before any file is written), a growth
# run whose gate time overflows its elapsed time, a vertical link at a p
# so small that a trial would expect 10**12 ops, and a merge run whose
# law expects more ops per trial than its budget, a sequential run just above
# p = 1/2 whose law expects 2e9 ops per trial, a divide and conquer run
# whose round lengths overflow an int64; a gate refuses an option it does not
# read (before any file is written)
for args in "growth divide_conquer --n 64 --k 3 --L 5" \
            "scaling --metric T --series rus-pf-0.6" "gate chain --n 1000000" \
            "scaling --p 1e-40 --series dc" \
            "gate cascade --n 6 --alpha 1e300 --theta 1" \
            "gate three-qubit --alpha 2 --theta 1e200" \
            "gate parity-bucket --alpha 2 --theta 1e200" \
            "gate parity-bucket --alpha 1e300 --theta 1" \
            "gate parity-momentum --alpha 1e308 --theta 3" \
            "gate parity-position --alpha 2e154 --theta 0.5" \
            "gate three-qubit --alpha 2e154 --theta 0.5" \
            "gate parity-momentum --alpha 1e200 --theta 1e-60" \
            "gate cascade --n 4 --alpha 2e154 --theta 0.5" \
            "scaling --t 0" "scaling --t nan" "scaling --metric T --t 1e308" \
            "scaling --l-min 0" "scaling --series , --svg $tmp/x.svg" \
            "scaling --series rus-pf-0.6 --l-max 6 --csv $tmp/x.csv" \
            "growth sequential --L 11 --trials 50 --t 1e308" \
            "growth vertical_link --p 1e-12 --trials 1" \
            "growth merge --p 0.1 --L 50 --trials 1 --seed 1" \
            "growth sequential --p 0.5000001 --L 400 --trials 200" \
            "growth divide_conquer --n 64 --k 2000 --trials 3" \
            "growth sequential --L 5 --config $tmp/keys.json" \
            "gate chain --config $tmp/keys.json" \
            "gate star --csv $tmp/x.csv" "gate cascade --beta 0.3" \
            "gate chain --alpha 3" "gate parity-momentum --number-resolving" \
            "gate three-qubit --n 4"; do
  status=0; $QUBUSLAB $args > "$tmp/err.txt" 2>&1 || status=$?
  test "$status" -eq 1
  grep -q "^Error:" "$tmp/err.txt"
  if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
done
test ! -e "$tmp/x.svg" && test ! -e "$tmp/x.csv"
# the closed-form tables at both metrics (the digests tests/test_cli.py pins)
scaling="$QUBUSLAB scaling --l-min 1 --l-max 400 --series dc,merge,seq"
$scaling --p 0.75 --metric N --csv "$tmp/s1.csv" > /dev/null
$scaling --p 0.75 --metric T --t 0.37 --csv "$tmp/s2.csv" > /dev/null
$scaling --p 0.6 --metric N --csv "$tmp/s3.csv" > /dev/null
$scaling --p 0.6 --metric T --t 0.37 --csv "$tmp/s4.csv" > /dev/null
echo "644079a1e29e015a6bc1c472f7c8e1c610a75702731bdea39864dfac391e1a1a  $tmp/s1.csv
a9ca8a4cb5eb97845d6ab192d20b8c06f26cfbf499ca9c3b2aa5b9acc5cf8a32  $tmp/s2.csv
8baa8c9241650beecc4ce72fa57594a1b65b67611768e2b76cefcfdf760e2ea6  $tmp/s3.csv
26389016def2573c2ba0a6214f5fcac7dc516740058376f5f8c3c5cfc5925364  $tmp/s4.csv" | sha256sum -c -
# a reference fit starts above its root: 185 L - 1115 is negative at L = 5, 6
$QUBUSLAB scaling --series rus-pf-0.6 --l-max 7 > "$tmp/out.txt"
test "$(tail -n +2 "$tmp/out.txt")" = "7,rus-pf-0.6,180.0"
# at p = 0.4 the critical length 4 reads 3.9999999999999996; merge starts at 5
$QUBUSLAB scaling --p 0.4 --series merge --l-max 6 > "$tmp/out.txt"
test "$(cat "$tmp/out.txt")" = "$(printf 'L,series,value\n5,merge,77.5\n6,merge,157.49999999999997')"
# sequential growth draws from one stream per block of 64 trials: these 2000
# trials read 32 blocks' streams, each block's first pass in one draw
$QUBUSLAB growth sequential --L 21 --trials 2000 --seed 7 --jsonl "$tmp/s.jsonl"
echo "f56beadde98acfb7c2ffb1a40f151f2b98ce7c45c5d72d649905730d3800a282  $tmp/s.jsonl" | sha256sum -c -
# capped walks at p = 1/2: nine in ten read a third pass or later, each pass
# of a row from its own Philox counter
echo '{"max_rounds": 700}' > "$tmp/cap.json"
$QUBUSLAB growth sequential --p 0.5 --L 30 --config "$tmp/cap.json" --trials 500 --seed 7 \
  --jsonl "$tmp/s2.jsonl"
echo "3973b7ee18de23b733c5e7d0d5d884049c986faa5e348a3f15a4b2f25f1c8f69  $tmp/s2.jsonl" | sha256sum -c -
# merge draws from one stream per block of 64 trials, 256 uniforms a row and
# pass; at p = 0.6 the minimal chain is 3 qubits, so chain builds take the
# halving branch
$QUBUSLAB growth merge --p 0.6 --L 20 --trials 500 --seed 7 --jsonl "$tmp/m.jsonl"
echo "d1e5af05a584243c31602fb74404c24f9a6f9c6ab3379012146c56e0f21f9f01  $tmp/m.jsonl" | sha256sum -c -
# minimal chains of 4 build in two levels, time is whole gate slots times
# 0.37, and most trials read three or more passes of draws
$QUBUSLAB growth merge --p 0.5 --L 41 --t 0.37 --trials 500 --seed 7 --jsonl "$tmp/m4.jsonl"
echo "caf230ae952b960a84400ff11dc159e93bfab06e9a286c3f73cc900eb9661406  $tmp/m4.jsonl" | sha256sum -c -
# divide and conquer draws from one stream per block of 1024 trials, and
# a run draws every block whole: these 1500 trials read two blocks' streams
$QUBUSLAB growth divide_conquer --p 0.75 --n 1024 --k 6 --trials 1500 --seed 7 --jsonl "$tmp/d.jsonl"
echo "1b3bedec4bf45eb52193feb38f727e5d800b90af76171ce5d887eb3e02f77ac1  $tmp/d.jsonl" | sha256sum -c -
# vertical links read rows of 4 ceil(1/(2p)) uniforms from one stream per
# block of 64 trials: at p = 0.05 (rows of 40) one trial in eight reads a
# second pass
$QUBUSLAB growth vertical_link --p 0.05 --trials 2000 --seed 7 --jsonl "$tmp/v.jsonl"
echo "1e263f6b8973b7bb289299830dc88f3c163bba236538a1c2199a440120a3f8ea  $tmp/v.jsonl" | sha256sum -c -
# p = 1/2: rows of 8, and about one trial in three hundred reads a second pass
$QUBUSLAB growth vertical_link --p 0.5 --trials 5000 --seed 7 --jsonl "$tmp/v2.jsonl"
echo "4ec3652ccd3b66f7b51eee44f7738ddfc1d3816a2446f52cc5ff9aa99dd05410  $tmp/v2.jsonl" | sha256sum -c -
# p = 0.01: rows of 200; one trial in eight reads a second pass, one in forty
# a third
$QUBUSLAB growth vertical_link --p 0.01 --trials 2000 --seed 7 --jsonl "$tmp/v3.jsonl"
echo "5c2cdd4ccb417fcf6fae230845019556a412829226453a579e7375872fc96dc4  $tmp/v3.jsonl" | sha256sum -c -
