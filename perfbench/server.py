"""Start ``python -m repro serve`` in its own process; watch and stop it."""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from client import http_get

#: Where a run keeps its scratch files, relative to the checkout.
WORK_DIR = ".perfbench"


class Server:
    """One server process tree (the front and, for a cluster, its workers)."""

    def __init__(self, root, app_path, args, traced=False, tag="server"):
        self.root = root
        work = os.path.join(root, WORK_DIR)
        os.makedirs(work, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=tag + "-", dir=work)
        self.port_file = os.path.join(work, tag + ".port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        env = dict(os.environ)
        path = [os.path.join(root, "src")]
        if traced:
            path.append(os.path.join(root, "perfbench", "hook"))
            env["PERFBENCH_LAYERS"] = "1"
        else:
            env.pop("PERFBENCH_LAYERS", None)
        env["PYTHONPATH"] = os.pathsep.join(path)
        # Cluster journals default to a fresh temp directory: keep them
        # inside the checkout, and remove them with the server.
        env["TMPDIR"] = self.tmp
        self.started = time.perf_counter()
        with open(os.path.join(work, tag + ".log"), "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", app_path,
                 "--port", "0", "--port-file", self.port_file] + list(args),
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        self.port = None
        self.pids = {self.process.pid}

    def wait_healthy(self, timeout=120.0):
        """Block until ``/healthz`` answers 200; returns the port."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("server exited with status {}".format(
                    self.process.returncode))
            if self.port is None and os.path.exists(self.port_file):
                with open(self.port_file) as handle:
                    text = handle.read().strip()
                if text:
                    self.port = int(text)
            if self.port is not None:
                try:
                    status, _body = http_get(self.port, "/healthz")
                    if status == 200:
                        return self.port
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server not healthy within {}s".format(timeout))

    def _descendants(self):
        children = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/{}/stat".format(entry)) as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            children.setdefault(int(fields[1]), []).append(int(entry))
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            frontier.extend(children.get(pid, ()))
        return found

    def peak_rss_mb(self):
        """Peak resident set size summed over the whole process tree."""
        total = 0
        for pid in self._descendants():
            self.pids.add(pid)
            try:
                with open("/proc/{}/status".format(pid)) as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                continue
        return total / 1024.0

    def cpu_meter(self):
        """A :class:`CpuMeter` over the process tree as it stands now."""
        return CpuMeter(self._descendants())

    def metrics(self):
        """Counters and histogram sums/counts scraped from ``/metrics``."""
        status, text = http_get(self.port, "/metrics", timeout=30)
        if status != 200:
            raise RuntimeError("/metrics answered {}".format(status))
        values = {}
        for line in text.splitlines():
            match = re.match(r"^(repro_[A-Za-z0-9_]+) (\S+)$", line)
            if match:
                values[match.group(1)] = float(match.group(2))
        return values

    def stop(self):
        """SIGTERM the front (it drains its workers); reap every process."""
        self.pids.update(self._descendants())
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        deadline = time.monotonic() + 10
        for pid in self.pids - {self.process.pid}:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        shutil.rmtree(self.tmp, ignore_errors=True)


class CpuMeter:
    """Processor time the server's threads run, read from the kernel's
    per-thread run-time counters (``/proc/<pid>/task/<tid>/schedstat``,
    nanoseconds).

    A thread waiting for a processor does not run, and on a virtual
    machine that accounts steal time, neither does one whose virtual CPU
    the host has handed to another guest; so run time, unlike wall time,
    does not grow while other programs hold the processors.
    """

    def __init__(self, pids):
        self.pids = tuple(pids)

    def sample(self):
        """``{(pid, tid): nanoseconds run}`` for every live thread."""
        sample = {}
        for pid in self.pids:
            try:
                tids = os.listdir("/proc/{}/task".format(pid))
            except OSError:
                continue
            for tid in tids:
                try:
                    with open("/proc/{}/task/{}/schedstat".format(
                            pid, tid)) as handle:
                        sample[pid, tid] = int(handle.read().split()[0])
                except (OSError, ValueError, IndexError):
                    continue
        return sample

    @staticmethod
    def seconds_between(before, after):
        """Run time between two samples.  A thread that ended in between
        took its counter with it, so only threads alive at ``after``
        count (a new one from zero)."""
        return sum(ran - before.get(key, 0)
                   for key, ran in after.items()) / 1e9


def _alive(pid):
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"
