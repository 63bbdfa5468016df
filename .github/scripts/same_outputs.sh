#!/usr/bin/env bash
# same_outputs.sh BASE_SRC HEAD_SRC WORK
#
# Generates the inputs with the beliefuse package under BASE_SRC and with
# the one under HEAD_SRC, at the seeds and sizes CI runs, and fails on any
# byte difference in the data directories: a change to the generator or the
# writers must write the base commit's files.
#
# Then trains the baselines with each package on two dense-shaped validation
# splits, and fails on any byte difference in the model files.
#
# Then runs the two-class walkthrough twice, first with the beliefuse package
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

for size in "150 3" "60 3" "60 1"; do
  read -r images detectors <<< "$size"
  for tree in base head; do
    src=${tree}_src
    PYTHONPATH="${!src}" python -m beliefuse.cli generate --out-dir "$work/generated_$tree/${images}_$detectors" \
      --seed 7 --num-images "$images" --num-detectors "$detectors" > /dev/null
  done
done
if ! diff -r "$work/generated_base" "$work/generated_head"; then
  echo "the generated inputs differ from the base commit's" >&2
  exit 1
fi
echo "generated inputs byte-identical: $(find "$work/generated_head" -type f | wc -l) files"

# Two dense-shaped validation splits (100 images, 6 detectors). At fp_rate
# 20, as the benchmark's dense workload draws it, the weighted-sum fit forms
# the margins at 3 of its 2,000 steps; at fp_rate 10, at 449, with its set
# of active rows changing after runs of skipped steps. The fits on the
# inputs above skip no step. Both trees train on the same files into the
# same path, and must write the same model files.
PYTHONPATH="$head_src" python - "$work/dense" <<'PY'
import dataclasses, sys
from pathlib import Path
from beliefuse import cli, datagen, io
for fp_rate in (20, 10):
    profiles = [dataclasses.replace(p, fp_rate=float(fp_rate)) for p in cli.default_profiles(6)]
    dataset = datagen.generate(7, 100, profiles)
    root, ids = Path(sys.argv[1]) / f"fp{fp_rate}", dataset.validation_image_ids
    root.mkdir(parents=True)
    for det_id in sorted(dataset.detections):
        io.write_detections(dataset.detections_for(det_id, ids), root / f"{det_id}.jsonl")
    io.write_annotations(dataset.ground_truths(ids), root / "annotations.jsonl")
PY
for split in fp20 fp10; do
  for tree in base head; do
    src=${tree}_src
    PYTHONPATH="${!src}" python -m beliefuse.cli build-baselines --detections-dir "$work/dense/$split" \
      --annotations "$work/dense/$split/annotations.jsonl" --models-dir "$work/dense_models" > /dev/null
    mv "$work/dense_models" "$work/dense_models_${tree}_$split"
  done
  if ! diff -r "$work/dense_models_base_$split" "$work/dense_models_head_$split"; then
    echo "the model files of the dense-shaped split $split differ from the base commit's" >&2
    exit 1
  fi
done
echo "dense-shaped splits' model files byte-identical: $(find "$work"/dense_models_head_* -type f | wc -l) files"

# Every third image's lines, detections and annotations both, are relabeled
# "cat", so each command runs over two classes.
cp -r "$work/generated_head/150_3" "$work/data"
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
