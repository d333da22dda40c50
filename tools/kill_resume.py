#!/usr/bin/env python3
"""Kills checkpointed `sustainai run` children at random moments and resumes.

    kill_resume.py <sustainai> <spec.json> <work dir>
                   [--kills N] [--seed S] [--segment-steps K]

One child runs at a time, writing <work dir>/checkpoint.json and its
journal. Each is sent SIGKILL after a random delay of up to the
uninterrupted run's wall time; the next child resumes from whatever the
kill left on disk (or starts afresh when there is no snapshot yet). Each
file of a killed child's bundle must be absent or whole: byte-equal to the
uninterrupted run's or, for a file that depends on where the child
resumed (its trace.json covers only the segments it ran), to a rerun's
from the child's starting checkpoint. A kill may stop the bundle write, never tear a file.
A child that finishes before its kill must write the uninterrupted
result.json, and the next cycle starts a new run. After N kills a last
child runs to the end, and its result.json must equal the uninterrupted
run's byte for byte.
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

    def argv(out, resume, ckpt=ckpt):
        a = [args.cli, "run", args.spec, "--out", out, "--checkpoint", ckpt,
             "--segment-steps", str(args.segment_steps)]
        return a + ["--resume", ckpt] if resume and os.path.exists(ckpt) else a

    def copy_checkpoint(src, to_dir):
        """Copies checkpoint src and its journal, where they exist, into
        to_dir (emptied first); returns the copy's path."""
        shutil.rmtree(to_dir, ignore_errors=True)
        os.makedirs(to_dir)
        for path in (src, src + ".journal"):
            if os.path.exists(path):
                shutil.copy(path, to_dir)
        return os.path.join(to_dir, os.path.basename(src))

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

    start = os.path.join(args.work, "start")
    start_ckpt = os.path.join(start, os.path.basename(ckpt))

    def same(name, a, b):
        return os.path.exists(os.path.join(b, name)) and filecmp.cmp(
            os.path.join(a, name), os.path.join(b, name), shallow=False)

    def check_bundle_after_kill(out, k):
        differ = [name for name in os.listdir(ref)
                  if os.path.exists(os.path.join(out, name))
                  and not same(name, out, ref)]
        if not differ:
            return
        # What the killed child would have written: a rerun from the same
        # starting checkpoint, to the end.
        replay = os.path.join(args.work, "replay")
        replay_ckpt = copy_checkpoint(start_ckpt, replay)
        replay_out = os.path.join(replay, "out")
        proc = subprocess.run(argv(replay_out, True, replay_ckpt),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            sys.exit(f"cycle {k} rerun: exit {proc.returncode}\n"
                     f"{proc.stderr.decode(errors='replace')}")
        for name in differ:
            if not same(name, out, replay_out):
                sys.exit(f"cycle {k}: killed run left a torn {name}")

    rng = random.Random(args.seed)
    landed = 0
    for k in range(args.kills):
        out = os.path.join(args.work, f"cycle{k}")
        copy_checkpoint(ckpt, start)
        proc = subprocess.Popen(argv(out, True), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        time.sleep(rng.uniform(0.0, wall))
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.communicate()
            landed += 1
            check_bundle_after_kill(out, k)
            continue
        finished(proc, out, f"cycle {k}")
        for done in (ckpt, ckpt + ".journal"):
            if os.path.exists(done):  # a fleet checkpoint has no journal
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
