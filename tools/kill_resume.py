#!/usr/bin/env python3
"""Kills checkpointed `sustainai run` children at random moments and resumes.

    kill_resume.py <sustainai> <spec.json> <work dir>
                   [--kills N] [--seed S] [--segment-steps K]

One child runs at a time, writing <work dir>/checkpoint.json and its
journal. Each is sent SIGKILL after a random delay of up to the
uninterrupted run's wall time; the next child resumes from whatever the
kill left on disk (or starts afresh when there is no snapshot yet). A child
that finishes before its kill must write the uninterrupted result.json,
and the next cycle starts a new run. After N kills a last child runs to the
end, and its result.json must equal the uninterrupted run's byte for byte.
Exits 0 on success and prints how many kills landed mid-run.
"""
import argparse
import filecmp
import os
import random
import shutil
import signal
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("cli")
    ap.add_argument("spec")
    ap.add_argument("work")
    ap.add_argument("--kills", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--segment-steps", type=int, default=64)
    args = ap.parse_args()

    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    ckpt = os.path.join(args.work, "checkpoint.json")
    ref = os.path.join(args.work, "reference")

    def argv(out, resume):
        a = [args.cli, "run", args.spec, "--out", out, "--checkpoint", ckpt,
             "--segment-steps", str(args.segment_steps)]
        return a + ["--resume", ckpt] if resume and os.path.exists(ckpt) else a

    def finished(proc, out, what):
        _, err = proc.communicate()
        if proc.returncode != 0:
            sys.exit(f"{what}: exit {proc.returncode}\n{err.decode(errors='replace')}")
        if not filecmp.cmp(os.path.join(out, "result.json"),
                           os.path.join(ref, "result.json"), shallow=False):
            sys.exit(f"{what}: result.json differs from the uninterrupted run")

    t0 = time.perf_counter()
    proc = subprocess.Popen(argv(ref, False), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    proc.communicate()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"uninterrupted run: exit {proc.returncode}")
    for leftover in (ckpt, ckpt + ".journal", ckpt + ".tmp"):
        if os.path.exists(leftover):
            os.remove(leftover)

    rng = random.Random(args.seed)
    landed = 0
    for k in range(args.kills):
        out = os.path.join(args.work, f"cycle{k}")
        proc = subprocess.Popen(argv(out, True), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        time.sleep(rng.uniform(0.0, wall))
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.communicate()
            landed += 1
            continue
        finished(proc, out, f"cycle {k}")
        for done in (ckpt, ckpt + ".journal"):
            os.remove(done)

    out = os.path.join(args.work, "final")
    finished(subprocess.Popen(argv(out, True), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE), out, "final resume")
    print(f"{landed} of {args.kills} kills landed mid-run; every resume "
          f"matched the uninterrupted result.json ({wall:.3f} s run)")
    if landed == 0:
        sys.exit("no kill landed mid-run")
    shutil.rmtree(args.work, ignore_errors=True)


if __name__ == "__main__":
    main()
