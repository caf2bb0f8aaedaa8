#!/usr/bin/env python3
"""Symbolizes and tabulates profiles from the tools/prof samplers.

    python3 tools/prof/report.py [--under NAME] [--top N] PROFILE...

Each PROFILE is a cpu.<pid>.prof (cpu_sampler.so) or heap.<pid>.prof
(heap_sampler.so); all given files must be of one kind and are merged, so
record them under `setarch -R` to keep addresses equal across runs.
Addresses are symbolized with addr2line (inlined frames expanded) against
the module each one falls in.

CPU profiles print a self table (innermost frame of each sample) and an
inclusive table (every function on the stack, once per sample). Heap
profiles print an allocation-site table (the first frame outside the
allocator and the standard library, with its source line) and the
inclusive table, weighted by estimated live bytes. --under NAME keeps only the stacks
that pass through a frame whose function contains NAME and cuts each at
that frame (the outermost match), so the tables cover the work below it.
"""
import argparse
import collections
import re
import subprocess
import sys

ALLOCATOR_FRAME = re.compile(
    r"^(std::|__gnu_cxx::|operator new|(malloc|calloc|realloc|memalign|"
    r"aligned_alloc|posix_memalign)$|__libc_|_Zn[wa]m)")


def parse(path):
    """Returns (kind, header, maps, [(weight, [addr, ...]), ...])."""
    kind, header, maps, stacks, section = None, "", [], [], None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                if kind is None:
                    kind, header = line.split()[1], line[2:]
                elif line in ("# maps", "# stacks"):
                    section = line[2:]
                continue
            if section == "maps":
                maps.append(line)
            elif section == "stacks" and line:
                fields = line.split()
                if kind == "heap":
                    weight, addrs = int(fields[0]), fields[2:]
                else:
                    weight, addrs = 1, fields
                stacks.append((weight, [int(a, 16) for a in addrs]))
    if kind not in ("cpu", "heap"):
        sys.exit(f"{path}: not a cpu or heap profile")
    return kind, header, maps, stacks


class Modules:
    """Maps a runtime address to (module path, address for addr2line)."""

    def __init__(self, maps):
        self.ranges, base = [], {}
        for line in maps:
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            path = parts[5]
            base[path] = min(base.get(path, lo), lo - int(parts[2], 16))
            self.ranges.append((lo, hi, path))
        self.ranges.sort()
        # Shared objects and PIE executables are linked at 0; a fixed-address
        # executable (ET_EXEC) is symbolized at its runtime address.
        self.base = {p: (b if self._is_dyn(p) else 0) for p, b in base.items()}

    @staticmethod
    def _is_dyn(path):
        try:
            with open(path, "rb") as f:
                head = f.read(18)
            return head[:4] == b"\x7fELF" and head[16] == 3  # ET_DYN
        except OSError:
            return True

    def find(self, addr):
        for lo, hi, path in self.ranges:
            if lo <= addr < hi:
                return path, addr - self.base[path]
        return None, addr


def short(fn):
    """A demangled name without return type, arguments or clone suffix:
    'void a::f<int>(int) const [clone .actor]' -> 'a::f<int>'. A lambda or
    coroutine frame keeps only its enclosing function's name."""
    fn = re.sub(r" \[clone [^]]*\]", "", fn)
    fn = fn.replace("(anonymous namespace)", "{anonymous}")
    fn = fn.replace("operator()", "operator\0")
    angle = paren = start = 0
    for i, c in enumerate(fn):
        if c in "<{":
            angle += 1
        elif c == "}" or (c == ">" and fn[i - 1] != "-"):
            angle -= 1
        elif c == "(":
            if angle == 0 and paren == 0 and i > start:
                fn = fn[:i]
                break
            paren += 1
        elif c == ")":
            paren -= 1
        elif (c == " " and angle == 0 and paren == 0 and
              not fn.startswith("operator", start)):
            start = i + 1  # what came before was a return type
    return fn[start:].replace("\0", "()")


def symbolize(addrs, modules):
    """addr -> [(function, file:line), ...], innermost inline first."""
    by_module = collections.defaultdict(set)
    out = {}
    for a in addrs:
        path, rel = modules.find(a)
        if path is None:
            out[a] = [(f"0x{a:x}", "??")]
        else:
            by_module[path].add((a, rel))
    for path, pairs in by_module.items():
        pairs = sorted(pairs)
        try:
            res = subprocess.run(
                ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
                input="\n".join(f"0x{rel:x}" for _, rel in pairs),
                capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            for a, rel in pairs:
                out[a] = [(f"{path}+0x{rel:x}", "??")]
            continue
        groups, cur = [], None
        lines = res.stdout.splitlines()
        i = 0
        while i < len(lines):
            if lines[i].startswith("0x"):
                cur = []
                groups.append(cur)
                i += 1
                continue
            fn = lines[i]
            loc = lines[i + 1] if i + 1 < len(lines) else "??"
            cur.append((short(fn), loc.split(" (discriminator")[0]))
            i += 2
        name = path.rsplit("/", 1)[-1]
        for (a, rel), frames in zip(pairs, groups):
            out[a] = [(fn if fn != "??" else f"{name}+0x{rel:x}", loc)
                      for fn, loc in frames] or [(f"{name}+0x{rel:x}", "??")]
    return out


def lookups(stack, exact_leaf):
    """Addresses to symbolize, innermost first. All but an exact leaf are
    return addresses: look up addr-1, inside the call instruction."""
    return [a if (i == 0 and exact_leaf) else a - 1 for i, a in enumerate(stack)]


def table(title, counts, total, unit, top):
    print(f"\n{title}")
    if total <= 0:
        print("  (no samples)")
        return
    for key, w in counts.most_common(top):
        print(f"  {100.0 * w / total:6.2f}%  {unit(w):>12}  {key}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profiles", nargs="+")
    ap.add_argument("--under", help="keep stacks below a frame matching this")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    kinds, samples = set(), []
    for path in args.profiles:
        kind, header, maps, stacks = parse(path)
        kinds.add(kind)
        print(f"{path}: {header}")
        modules = Modules(maps)
        stacks = [(w, lookups(s, kind == "cpu")) for w, s in stacks]
        syms = symbolize({a for _, s in stacks for a in s}, modules)
        for weight, stack in stacks:
            samples.append((weight, [f for a in stack for f in syms[a]]))
    if len(kinds) != 1:
        sys.exit("cannot merge cpu and heap profiles")
    kind = kinds.pop()

    self_w, incl_w, site_w = (collections.Counter() for _ in range(3))
    total = 0
    for weight, frames in samples:
        if args.under:
            hits = [i for i, (fn, _) in enumerate(frames) if args.under in fn]
            if not hits:
                continue
            frames = frames[:hits[-1] + 1]
        total += weight
        self_w[frames[0][0] if frames else "??"] += weight
        for fn in {fn for fn, _ in frames}:
            incl_w[fn] += weight
        if kind == "heap":
            site = next(((fn, loc) for fn, loc in frames
                         if not ALLOCATOR_FRAME.match(fn)), ("??", "??"))
            site_w[f"{site[0]}  [{site[1].rsplit('/', 1)[-1]}]"] += weight

    scope = f" under '{args.under}'" if args.under else ""
    if kind == "cpu":
        unit = lambda w: f"{w} smp"  # noqa: E731
        print(f"\n{total} samples{scope}")
        table("self", self_w, total, unit, args.top)
    else:
        unit = lambda w: f"{w / 2**20:.2f} MB"  # noqa: E731
        print(f"\n{total / 2**20:.2f} MB estimated live heap{scope}")
        table("allocation sites (first frame outside the allocator and std)",
              site_w, total, unit, args.top)
    table("inclusive", incl_w, total, unit, args.top)


if __name__ == "__main__":
    main()
