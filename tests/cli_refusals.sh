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

# A shard result edited to a negative shot count is refused by merge,
# which then writes no merged file for any job. The edited file is the
# last job's, after every other job's shard has loaded.
spec tiny 's/"shots": [0-9]*/"shots": 16/; s/"rounds": [0-9]*/"rounds": 3/'
runs="$dir/runs"
"$bin" run --spec "$dir/tiny.json" --shard 0/1 --out "$runs" \
    > "$dir/tiny_run.stdout" || exit 1
last=$(ls "$runs"/*.shard0of1.json | grep -v telemetry | tail -n 1)
cp "$last" "$dir/last.orig"
sed '1,/"shots"/s/"shots": [0-9]*/"shots": -5/' "$dir/last.orig" > "$last"
expect merge_negative_shots '"shots" -5 is a negative count' \
    "$bin" merge --spec "$dir/tiny.json" --shards 1 --out "$runs"
if ls "$runs" | grep -q merged; then
    echo "FAIL merge wrote a merged file from a refused shard"
    fail=1
fi

# So is one whose first stream claims one shot fewer than the job gives
# it: a well-formed count that contradicts the spec.
n=$(sed -n 's/.*"shots": \([0-9]*\).*/\1/p' "$dir/last.orig" | head -n 1)
sed "1,/\"shots\"/s/\"shots\": [0-9]*/\"shots\": $((n - 1))/" \
    "$dir/last.orig" > "$last"
expect merge_contradicting_shots "shots = $((n - 1)), want $n" \
    "$bin" merge --spec "$dir/tiny.json" --shards 1 --out "$runs"
if ls "$runs" | grep -q merged; then
    echo "FAIL merge wrote a merged file from a contradicting shard"
    fail=1
fi

# A shard file cut short, or one holding a total that is not a hex double,
# is refused naming the file: the bare parse error does not say which of
# the campaign's files is broken.
head -c 50 "$dir/last.orig" > "$last"
expect merge_truncated_shard "$last" \
    "$bin" merge --spec "$dir/tiny.json" --shards 1 --out "$runs"
sed '1,/"fn_total"/s/"fn_total": "[^"]*"/"fn_total": "0xnothex"/' \
    "$dir/last.orig" > "$last"
expect merge_bad_metrics_hex "$last" \
    "$bin" merge --spec "$dir/tiny.json" --shards 1 --out "$runs"
cp "$dir/last.orig" "$last"
if ls "$runs" | grep -q merged; then
    echo "FAIL merge wrote a merged file from a broken shard file"
    fail=1
fi

# report and heatmap refuse a file of another job. Swapping the first two
# policies keeps every job's config hash (paired seeds), so only the rest
# of the file's identity header tells job 0's files from job 1's.
swap="$dir/swap"
"$bin" run --spec "$dir/tiny.json" --shard 0/1 --heatmap --out "$swap" \
    > "$dir/swap_run.stdout" || exit 1
"$bin" merge --spec "$dir/tiny.json" --shards 1 --out "$swap" \
    > "$dir/swap_merge.stdout" || exit 1
sed 's/"eraser_m"/"@"/; s/"gladiator_m"/"eraser_m"/; s/"@"/"gladiator_m"/' \
    "$dir/tiny.json" > "$dir/swapped.json"
expect report_swapped "$swap/example.job0000.merged.json" \
    "$bin" report --spec "$dir/swapped.json" --out "$swap"
expect heatmap_swapped "$swap/example.job0000.shard0of1.telemetry.json" \
    "$bin" heatmap --spec "$dir/swapped.json" --shards 1 --out "$swap"

# So does heatmap a stale telemetry file; it used to drop just that job.
telem="$swap/example.job0001.shard0of1.telemetry.json"
cp "$telem" "$dir/telem.orig"
sed 's/"config_hash": "[^"]*"/"config_hash": "0x1"/' "$dir/telem.orig" \
    > "$telem"
expect heatmap_stale_telemetry "$telem" \
    "$bin" heatmap --spec "$dir/tiny.json" --shards 1 --out "$swap"
cp "$dir/telem.orig" "$telem"
if ls "$swap" | grep -q heatmap; then
    echo "FAIL heatmap wrote a heatmap file from a refused telemetry file"
    fail=1
fi

# And report refuses a merged file whose shot count contradicts the spec.
merged="$swap/example.job0000.merged.json"
cp "$merged" "$dir/merged.orig"
sed 's/"shots": [0-9]*/"shots": 1/' "$dir/merged.orig" > "$merged"
expect report_contradicting_shots "$merged" \
    "$bin" report --spec "$dir/tiny.json" --out "$swap"
exit $fail
