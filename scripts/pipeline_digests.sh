#!/usr/bin/env bash
# Run the configs/default.json pipeline into OUT and print "sha256  path" for
# every file it leaves there, the stdout of each command included. Two trees
# that print the same lines produce the same artifacts.
#
#   OPENBLAS_NUM_THREADS=1 scripts/pipeline_digests.sh OUT > digests.txt
#
# OUT must be missing or empty. The commands run inside OUT with relative
# paths, so no file depends on where OUT is; BLAS threads are the caller's.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 1
fi
root=$(cd "$(dirname "$0")/.." && pwd)
config="$root/configs/default.json"
mkdir -p "$1"
if [ -n "$(ls -A "$1")" ]; then
    echo "error: $1 is not empty" >&2
    exit 1
fi
cd "$1"
mkdir stdout

run() {
    local name=$1
    shift
    PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m orthoadapt.cli "$@" \
        > "stdout/$name.txt"
}

run pretrain pretrain --config "$config" --out pre
run ft_fft finetune --config "$config" --checkpoint pre --out ft_fft --regime fft
run ft_lora finetune --config "$config" --checkpoint pre --out ft_lora --regime lora
run ft_linear_probe finetune --config "$config" --checkpoint pre --out ft_linear_probe \
    --regime linear_probe
run ft_svd_only finetune --config "$config" --checkpoint pre --out ft_svd_only --regime svd \
    --lambda1 0 --lambda2 0
run ft_svd finetune --config "$config" --checkpoint pre --out ft_svd --regime svd
run sweep sweep --config "$config" --checkpoint pre --out sweep
run svd_split svd-split pre/head_w.emx --rank 4 --out split
run analyze analyze pre/adapters/block0.q/w.emx --out rank
run report_ft_svd report ft_svd
run report_sweep report sweep
run report_pre report pre

find . -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum
