#!/usr/bin/env bash
# same_outputs.sh BASE_SRC HEAD_SRC WORK
#
# Runs the two-class walkthrough twice, first with the beliefuse package
# under BASE_SRC and then with the one under HEAD_SRC, on the same inputs and
# into the same paths under WORK, and fails on any byte difference in what
# the runs write: the model files, the fused JSON lines of all five methods
# at --jobs 1 and 2, report.json and report.csv, and the sweep-n CSV. The
# models are trained a second time at other labeling settings (match_iou 0.3
# from a config file, duplicates false positives), so that the labeling
# branches the defaults never take compare too. Every path a file names is
# the same in both runs, so headers compare too.
set -euo pipefail
base_src=$(realpath "$1")
head_src=$(realpath "$2")
work=$3
rm -rf "$work"
mkdir -p "$work"

# Every third image's lines, detections and annotations both, are relabeled
# "cat", so each command runs over two classes.
PYTHONPATH="$head_src" python -m beliefuse.cli generate --out-dir "$work/data" --seed 7 --num-images 150 > /dev/null
python - "$work/data" <<'PY'
import json, sys
from pathlib import Path
for path in Path(sys.argv[1]).glob("*/*.jsonl"):
    lines = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if "_header" not in row and int(row["image_id"].split("_")[1]) % 3 == 0:
            line = line.replace('"class": "object"', '"class": "cat"')
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")
PY
echo '{"match_iou": 0.3}' > "$work/match_iou.json"

run() {  # run SRC OUT: the walkthrough with SRC's package, outputs under OUT
  local src=$1 out=$2
  beliefuse() { PYTHONPATH="$src" python -m beliefuse.cli "$@" > /dev/null; }
  local data=(--detections-dir "$work/data/validation" --annotations "$work/data/validation/annotations.jsonl")
  beliefuse build-trust "${data[@]}" --models-dir "$out/models"
  beliefuse build-baselines "${data[@]}" --models-dir "$out/models"
  local other=(--models-dir "$out/models_other" --config "$work/match_iou.json" --duplicate-policy false_positive)
  beliefuse build-trust "${data[@]}" "${other[@]}"
  beliefuse build-baselines "${data[@]}" "${other[@]}"
  local inputs=()
  for method in dbf static-dst platt ws bayes; do
    for jobs in 1 2; do
      beliefuse fuse --method "$method" --detections-dir "$work/data/test" --models-dir "$out/models" \
        --out "$out/fused_${method}_${jobs}.jsonl" --jobs "$jobs"
    done
    inputs+=(-i "$method=$out/fused_${method}_1.jsonl")
  done
  beliefuse eval --annotations "$work/data/test/annotations.jsonl" --out "$out/report" "${inputs[@]}"
  beliefuse sweep-n --n-values 1,2,4,8,inf "${data[@]}" --test-detections-dir "$work/data/test" \
    --test-annotations "$work/data/test/annotations.jsonl" --out "$out/sweep.csv"
}

run "$base_src" "$work/out"
mv "$work/out" "$work/base"
run "$head_src" "$work/out"
ls "$work/out/models"/*.json "$work/out/models_other"/*.json "$work/out/report/report.json" "$work/out/report/report.csv" "$work/out/sweep.csv" > /dev/null
if ! diff -r "$work/base" "$work/out"; then
  echo "the outputs differ from the base commit's" >&2
  exit 1
fi
echo "outputs byte-identical: $(find "$work/out" -type f | wc -l) files"
