#!/usr/bin/env bash
# SciPy is a test dependency only: these commands must run where it is not
# installed.  QUBUSLAB names the command (default: qubuslab).
set -euo pipefail
QUBUSLAB=${QUBUSLAB:-qubuslab}

$QUBUSLAB verify --quick
$QUBUSLAB gate parity-bucket
$QUBUSLAB gate chain --n 6
$QUBUSLAB gate star --n 6
$QUBUSLAB growth merge --L 21 --trials 500
$QUBUSLAB scaling
