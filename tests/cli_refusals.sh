#!/bin/sh
# Hostile-input refusals through the real gld_campaign binary: every case
# below must exit with status 1, print the expected error, and write no
# result directory.
#
# usage: cli_refusals.sh <path to gld_campaign> <scratch directory>
set -u
bin=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
"$bin" init > "$dir/example.json" || exit 1
out="$dir/out"
fail=0

# expect <case> <stderr pattern> <command...>
expect() {
    name=$1
    pattern=$2
    shift 2
    "$@" > "$dir/$name.stdout" 2> "$dir/$name.stderr"
    status=$?
    if [ "$status" -ne 1 ]; then
        echo "FAIL $name: exit status $status, want 1"
        cat "$dir/$name.stderr"
        fail=1
    elif ! grep -q -- "$pattern" "$dir/$name.stderr"; then
        echo "FAIL $name: stderr lacks \"$pattern\""
        cat "$dir/$name.stderr"
        fail=1
    else
        echo "ok   $name"
    fi
}

# spec <case> <sed script>: a variant of the example spec
spec() {
    sed "$2" "$dir/example.json" > "$dir/$1.json"
}

# A backend name this build does not know (batch_tableau) must be
# refused wherever it enters, never mapped to another engine.
known='known backends: frame, tableau, batch_frame'
spec stale_backend 's/"backend": "frame"/"backend": "batch_tableau"/'
expect spec_backend "$known" \
    "$bin" run --spec "$dir/stale_backend.json" --shard 0/1 --out "$out"
expect option_backend "$known" \
    "$bin" demo --backend batch_tableau --out "$out"
expect option_candidates "$known" \
    "$bin" verify --candidates batch_tableau --out "$out"
expect env_backend "$known" \
    env GLD_BACKEND=batch_tableau "$bin" demo --out "$out"

# Spec integers outside int's range are refused, never narrowed
# (narrowed, 2^32 + 5 rounds would plan 5).
for field in shots rounds rng_streams; do
    for v in 4294967301 -4294967296; do
        spec "$field$v" "s/\"$field\": [0-9]*/\"$field\": $v/"
        expect "spec_$field$v" "\"$field\" $v does not fit in int" \
            "$bin" run --spec "$dir/$field$v.json" --shard 0/1 --out "$out"
    done
done
for v in 4294967297 -4294967296; do
    spec "batch_words$v" \
        "s/\"backend\": \"frame\"/\"backend\": \"batch_frame\", \"batch_words\": $v/"
    expect "spec_batch_words$v" "\"batch_words\" $v does not fit in int" \
        "$bin" run --spec "$dir/batch_words$v.json" --shard 0/1 --out "$out"
done

if [ -e "$out" ]; then
    echo "FAIL a refused command wrote $out"
    fail=1
fi
exit $fail
