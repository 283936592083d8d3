#!/usr/bin/env python3
"""Distributed-sweep coordinator: shard, run, stream, merge — one command.

Usage:
    tools/sweep_shard.py --shards N [options] -- <sweep_main args>

Runs the given sweep (safety, --term, or --explore alike) as N
independent `sweep_main --shard i/N` processes, streams their exit
states as they land, then invokes `sweep_main --merge` to validate the
shard set and reconstitute the exact store + digest the unsharded run
would have produced (see src/sweep/shard.hpp for why that is an
identity, not an approximation).  Example:

    tools/sweep_shard.py --shards 4 --out store.jsonl -- \
        --algorithms abd --faults minority --seeds 0:1000 --threads 4

Options:
  --shards N     shard count (>= 1; 1 degenerates to a plain run)
  --bin PATH     sweep_main binary (default: build/sweep_main)
  --out PATH     write the merged store here (as sweep_main --out would)
  --jobs M       run at most M shard processes at once (default: all N)
  --work-dir D   keep shard stores in D instead of a temp dir (kept on
                 exit; the default temp dir is removed on success)
  --progress     live per-shard telemetry: each shard gets a private
                 pipe wired to `sweep_main --progress-fd`, and the
                 coordinator multiplexes the streams into `[shard i]`
                 lines on stderr (done/total, rate, ETA, per-class
                 counts).  Once the first shard finishes, any shard
                 whose ETA exceeds --straggler-factor times the fastest
                 finisher's total time is flagged as a straggler (once).
                 Local shards only — rejected with --hosts
  --straggler-factor F
                 straggler threshold for --progress (default 2.0, must
                 be > 0): flag a running shard once its ETA exceeds
                 F x the fastest finished shard's wall time
  --hosts LIST   comma list of SSH hosts to spread shards over
                 round-robin (shard i runs via `ssh <host[i mod H]>`).
                 v1 hook point: hosts must share this filesystem (same
                 repo path, same work dir) — a scheduler-grade fabric
                 can replace this launcher without touching the merge.

Everything after `--` goes to sweep_main verbatim.  The coordinator owns
--shard/--merge/--out/--list/--replay/--progress-fd, so those are
rejected in the sweep args.  Per-shard observability files (--metrics,
--trace) are allowed: the coordinator rewrites each path to
<path>.shard<i> so shards never clobber a shared file.  --forensics DIR
passes through UNREWRITTEN on purpose: artifact names embed the global
scenario index (scenario-<gi>.json), global indices are disjoint across
shards, and each artifact is a pure function of its scenario — so all
shards share one DIR and together tile exactly the files the unsharded
run would write, byte for byte.

Exit status: the merge's own exit status (0 clean, 1 the merged summary
contains failures) — or 2 if any shard exits with a usage/machinery
error, dies on a signal, or the merge rejects the shard set.
"""

import argparse
import json
import os
import selectors
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

FORBIDDEN = ("--shard", "--merge", "--out", "--list", "--replay",
             "--progress-fd")

# Flags whose value names an output file every shard would otherwise
# clobber; the coordinator rewrites each to <path>.shard<i>.
PER_SHARD_PATHS = ("--metrics", "--trace")


def per_shard_args(sweep_args, index, shards):
    """sweep_args with --metrics/--trace paths suffixed for shard `index`."""
    if shards <= 1:
        return list(sweep_args)
    out = []
    j = 0
    while j < len(sweep_args):
        a = sweep_args[j]
        if a in PER_SHARD_PATHS and j + 1 < len(sweep_args):
            out += [a, f"{sweep_args[j + 1]}.shard{index}"]
            j += 2
        else:
            out.append(a)
            j += 1
    return out


def main():
    ap = argparse.ArgumentParser(add_help=True, usage=__doc__)
    ap.add_argument("--shards", type=int, required=True)
    ap.add_argument("--bin", default=os.path.join("build", "sweep_main"))
    ap.add_argument("--out", default="")
    ap.add_argument("--jobs", type=int, default=0)
    ap.add_argument("--work-dir", default="")
    ap.add_argument("--progress", action="store_true")
    ap.add_argument("--straggler-factor", type=float, default=2.0)
    ap.add_argument("--hosts", default="")
    ap.add_argument("sweep_args", nargs="*")
    args = ap.parse_args()

    if args.shards < 1:
        print("sweep_shard: --shards must be >= 1", file=sys.stderr)
        return 2
    if not args.straggler_factor > 0:  # also rejects NaN
        print("sweep_shard: --straggler-factor must be > 0",
              file=sys.stderr)
        return 2
    sweep_args = args.sweep_args
    # argparse keeps the "--" separator when present; drop it.
    if sweep_args and sweep_args[0] == "--":
        sweep_args = sweep_args[1:]
    for flag in sweep_args:
        if flag in FORBIDDEN:
            print(f"sweep_shard: {flag} belongs to the coordinator, not "
                  "the sweep args", file=sys.stderr)
            return 2
    hosts = [h for h in args.hosts.split(",") if h]
    if args.progress and hosts:
        print("sweep_shard: --progress needs local shards (a pipe fd "
              "cannot cross ssh); drop --hosts", file=sys.stderr)
        return 2

    if args.work_dir:
        work = args.work_dir
        os.makedirs(work, exist_ok=True)
        cleanup = False
    else:
        work = tempfile.mkdtemp(prefix="sweep_shard.")
        cleanup = True

    def command(index, store, progress_fd=None):
        cmd = [args.bin] + per_shard_args(sweep_args, index, args.shards)
        if args.shards > 1:
            cmd += ["--shard", f"{index}/{args.shards}"]
        cmd += ["--out", store]
        if progress_fd is not None:
            cmd += ["--progress-fd", str(progress_fd)]
        if hosts:
            # SSH hook point (v1): same filesystem, same paths, one shard
            # per `ssh host -- <command>`.
            return ["ssh", hosts[index % len(hosts)], "--",
                    shlex.join(cmd)]
        return cmd

    stores = [os.path.join(work, f"shard_{i}.jsonl")
              for i in range(args.shards)]
    jobs = args.jobs if args.jobs > 0 else args.shards
    pending = list(range(args.shards))
    running = {}  # pid -> (index, Popen)
    hard_failed = False
    # --progress bookkeeping: one pipe per shard, multiplexed with a
    # selector; straggler detection compares a running shard's ETA
    # against the fastest finished shard's total wall time.
    sel = selectors.DefaultSelector() if args.progress else None
    started_at = {}    # index -> monotonic start
    finished_in = []   # wall seconds of finished shards
    flagged = set()    # shards already called out as stragglers

    def report(i, d):
        done, total = d.get("done", 0), d.get("total", 0)
        extras = " ".join(
            f"{k}={v}" for k, v in d.items()
            if k not in ("obs", "mode", "state", "done", "total",
                         "elapsed_ms", "eta_ms", "rate"))
        state = " [done]" if d.get("state") == "done" else ""
        print(f"[shard {i}] {done}/{total} {d.get('rate', 0)}/s "
              f"eta {(d.get('eta_ms', 0) + 999) // 1000}s "
              f"{extras}{state}", file=sys.stderr)
        if (finished_in and d.get("state") != "done"
                and i not in flagged
                and d.get("eta_ms", 0) / 1000.0
                > args.straggler_factor * min(finished_in)):
            flagged.add(i)
            print(f"[sweep_shard] shard {i} straggling: eta "
                  f"{d['eta_ms'] / 1000.0:.1f}s vs "
                  f"{args.straggler_factor}x fastest shard "
                  f"{min(finished_in):.1f}s total", file=sys.stderr)

    readers = {}       # index -> read end of the shard's progress pipe

    def read_progress(reader, i):
        """Reports one line from shard i's pipe; False once it is closed."""
        if reader.closed:
            return False
        line = reader.readline()
        if not line:  # EOF: the shard closed its end
            sel.unregister(reader)
            reader.close()
            return False
        try:
            d = json.loads(line)
        except ValueError:
            return True
        if d.get("obs") == "progress":
            report(i, d)
        return True

    def reap(i, proc, rc):
        nonlocal hard_failed
        if args.progress:
            finished_in.append(time.monotonic() - started_at[i])
        print(f"[sweep_shard] shard {i}/{args.shards} exited {rc}",
              file=sys.stderr)
        # rc 1 means the shard's slice contains failures — its store
        # is still complete and mergeable (the merged summary carries
        # the verdict).  Anything else is a broken shard: stop early.
        if rc not in (0, 1):
            hard_failed = True
            for _, (j, p) in running.items():
                p.terminate()
            for _, (j, p) in running.items():
                p.wait()
            running.clear()
            print(f"[sweep_shard] shard {i}/{args.shards} failed "
                  f"(exit {rc}); aborting before the merge",
                  file=sys.stderr)
            return False
        return True

    try:
        while pending or running:
            while pending and len(running) < jobs:
                i = pending.pop(0)
                progress_wfd = None
                if args.progress:
                    rfd, progress_wfd = os.pipe()
                # Shard summaries go to stderr: stdout is reserved for
                # the merged (= unsharded-identical) summary.
                proc = subprocess.Popen(
                    command(i, stores[i], progress_wfd),
                    stdout=sys.stderr.fileno()
                    if args.shards > 1 else None,
                    pass_fds=(progress_wfd,) if args.progress else ())
                if args.progress:
                    os.close(progress_wfd)
                    readers[i] = os.fdopen(rfd, "r")
                    sel.register(readers[i], selectors.EVENT_READ, i)
                    started_at[i] = time.monotonic()
                running[proc.pid] = (i, proc)
                print(f"[sweep_shard] shard {i}/{args.shards} started "
                      f"(pid {proc.pid})", file=sys.stderr)
            if sel is None:
                pid, status = os.wait()
                if pid not in running:
                    continue
                i, proc = running.pop(pid)
                if not reap(i, proc, os.waitstatus_to_exitcode(status)):
                    return 2
                continue
            # --progress: poll the pipes (readline blocks at most until
            # the writer's next emit or its exit-side EOF), then reap
            # any shards that exited.
            for key, _ in sel.select(timeout=0.5):
                read_progress(key.fileobj, key.data)
            for pid in [p for p, (_, pr) in running.items()
                        if pr.poll() is not None]:
                i, proc = running.pop(pid)
                # The shard may have written its last lines after the
                # select above: drain its pipe to EOF before reaping.
                while read_progress(readers[i], i):
                    pass
                if not reap(i, proc, proc.returncode):
                    return 2

        if args.shards == 1:
            # Degenerate single-shard run: no bracket records were
            # written, so there is nothing to merge — the one store IS
            # the unsharded store.
            if args.out:
                shutil.copyfile(stores[0], args.out)
            return 0

        merge_cmd = [args.bin, "--merge"] + stores
        if args.out:
            merge_cmd += ["--out", args.out]
        print(f"[sweep_shard] merging {args.shards} shard stores",
              file=sys.stderr)
        return subprocess.call(merge_cmd)
    finally:
        if cleanup and not hard_failed:
            shutil.rmtree(work, ignore_errors=True)
        elif cleanup:
            print(f"[sweep_shard] shard stores kept in {work}",
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
