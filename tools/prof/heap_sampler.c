// Live-heap sampler, loaded with LD_PRELOAD.
//
// Interposes malloc, free, calloc, realloc and the aligned allocators (C++
// operator new reaches them through malloc) and samples about one
// allocation per 16 KiB allocated: the gap to the next sampled byte is drawn
// from an exponential distribution, so periodic allocation patterns do not
// alias. A block of size s is sampled with probability 1 - exp(-s/interval),
// so a sampled block stands for s / (1 - exp(-s/interval)) bytes, which
// makes the estimate unbiased. Sampled blocks stay in a
// fixed table until freed. Whenever the estimated live sampled heap reaches
// a new peak (at least 1/64 above the last one written), the live samples
// are written to heap.<pid>.prof in the working directory, replacing the
// previous snapshot: the file always holds the heap at its peak.
//
// Nothing here allocates. Writes use a static buffer and raw syscalls.
// Run under `setarch -R` so samples from several runs can be merged.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);
extern void __libc_free(void*);

#define kIntervalBytes 16384.0
#define kMaxDepth 48
#define kMaxSamples (1u << 16)
#define kSlotBits 17
#define kSlots (1u << kSlotBits)
// The interposed entry point and Record().
#define kSkipFrames 2

struct Sample {
  size_t size;
  size_t weight;
  uint8_t depth;
  void* frames[kMaxDepth];
};

// Live samples sit in a dense pool (reused through a free stack) and are
// found by block address through a linear-probing index that deletes by
// backward shift, so a free() of an unsampled block probes a short run.
struct Slot {
  uintptr_t ptr;  // 0: empty
  uint32_t sample;
};

static struct Sample g_samples[kMaxSamples];
static uint32_t g_free[kMaxSamples];
static uint32_t g_free_top;
static uint32_t g_pool_used;
static struct Slot g_slots[kSlots];
static size_t g_live_samples;
static size_t g_live_bytes;     // sum of weights of live samples
static size_t g_written_peak;   // g_live_bytes at the last snapshot
static double g_until_sample;   // bytes left before the next sampled byte
static uint64_t g_rng = 0x9e3779b97f4a7c15ull;
static int g_ready;
static volatile int g_lock;
static __thread int t_busy;     // set while this thread is inside the hooks

static void Lock(void) {
  while (__atomic_test_and_set(&g_lock, __ATOMIC_ACQUIRE)) {
  }
}
static void Unlock(void) { __atomic_clear(&g_lock, __ATOMIC_RELEASE); }

static double NextGap(void) {
  g_rng ^= g_rng << 13;
  g_rng ^= g_rng >> 7;
  g_rng ^= g_rng << 17;
  const double u = ((double)(g_rng >> 11) + 0.5) / 9007199254740992.0;
  return -log(u) * kIntervalBytes;
}

static uint32_t Home(uintptr_t p) {
  return (uint32_t)((p >> 4) * 0x9e3779b97f4a7c15ull >> (64 - kSlotBits));
}

static uint32_t Next(uint32_t i) { return (i + 1) & (kSlots - 1); }

// ---- snapshot writer (static buffer, raw write) ----

static char g_buf[1 << 16];
static size_t g_len;
static int g_fd = -1;

static void Flush(void) {
  size_t off = 0;
  while (off < g_len) {
    const ssize_t n = write(g_fd, g_buf + off, g_len - off);
    if (n <= 0) break;
    off += (size_t)n;
  }
  g_len = 0;
}
static void PutStr(const char* s) {
  for (; *s; ++s) {
    if (g_len == sizeof g_buf) Flush();
    g_buf[g_len++] = *s;
  }
}
static void PutNum(uint64_t v, int base) {
  char tmp[24];
  int n = 0;
  do {
    tmp[n++] = "0123456789abcdef"[v % (uint64_t)base];
    v /= (uint64_t)base;
  } while (v != 0);
  if (g_len + (size_t)n > sizeof g_buf) Flush();
  while (n > 0) g_buf[g_len++] = tmp[--n];
}

static void WriteSnapshot(void) {
  char path[48] = "heap.";
  char* q = path + 5;
  char digits[16];
  int n = 0;
  for (int pid = (int)getpid(); pid > 0; pid /= 10) digits[n++] = '0' + pid % 10;
  while (n > 0) *q++ = digits[--n];
  memcpy(q, ".prof", 6);
  g_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (g_fd < 0) return;
  g_len = 0;
  PutStr("# heap interval_bytes=");
  PutNum((uint64_t)kIntervalBytes, 10);
  PutStr(" live_bytes=");
  PutNum(g_live_bytes, 10);
  PutStr(" samples=");
  PutNum(g_live_samples, 10);
  PutStr("\n# maps\n");
  Flush();
  const int maps = open("/proc/self/maps", O_RDONLY);
  if (maps >= 0) {
    ssize_t r;
    while ((r = read(maps, g_buf, sizeof g_buf)) > 0) {
      g_len = (size_t)r;
      Flush();
    }
    close(maps);
  }
  PutStr("# stacks\n");
  for (uint32_t i = 0; i < kSlots; ++i) {
    if (g_slots[i].ptr == 0) continue;
    const struct Sample* s = &g_samples[g_slots[i].sample];
    PutNum(s->weight, 10);
    PutStr(" ");
    PutNum(s->size, 10);
    for (int d = kSkipFrames; d < s->depth; ++d) {
      PutStr(" ");
      PutNum((uintptr_t)s->frames[d], 16);
    }
    PutStr("\n");
  }
  Flush();
  close(g_fd);
  g_fd = -1;
}

// ---- sampling ----

__attribute__((noinline)) static void Record(void* p, size_t size) {
  if (p == NULL || !g_ready || t_busy) return;
  t_busy = 1;
  Lock();
  g_until_sample -= (double)size;
  if (g_until_sample <= 0) {
    while (g_until_sample <= 0) g_until_sample += NextGap();
    uint32_t idx = kMaxSamples;
    if (g_free_top > 0) {
      idx = g_free[--g_free_top];
    } else if (g_pool_used < kMaxSamples) {
      idx = g_pool_used++;
    }
    if (idx < kMaxSamples) {  // a full pool skips the sample
      struct Sample* s = &g_samples[idx];
      s->size = size;
      s->weight = (size_t)((double)size /
                           (1.0 - exp(-(double)size / kIntervalBytes)));
      s->depth = (uint8_t)backtrace(s->frames, kMaxDepth);
      uint32_t i = Home((uintptr_t)p);
      while (g_slots[i].ptr != 0) i = Next(i);
      g_slots[i].ptr = (uintptr_t)p;
      g_slots[i].sample = idx;
      g_live_samples++;
      g_live_bytes += s->weight;
      if (g_live_bytes > g_written_peak + g_written_peak / 64) {
        g_written_peak = g_live_bytes;
        WriteSnapshot();
      }
    }
  }
  Unlock();
  t_busy = 0;
}

static void Forget(void* p) {
  if (p == NULL || g_live_samples == 0 || t_busy) return;
  t_busy = 1;
  Lock();
  uint32_t i = Home((uintptr_t)p);
  while (g_slots[i].ptr != 0 && g_slots[i].ptr != (uintptr_t)p) i = Next(i);
  if (g_slots[i].ptr != 0) {
    const uint32_t idx = g_slots[i].sample;
    g_free[g_free_top++] = idx;
    g_live_samples--;
    g_live_bytes -= g_samples[idx].weight;
    // Backward-shift deletion: pull later entries of the run into the gap
    // unless their home lies cyclically in (gap, j].
    for (uint32_t j = Next(i); g_slots[j].ptr != 0; j = Next(j)) {
      const uint32_t home = Home(g_slots[j].ptr);
      const int stays = i <= j ? (i < home && home <= j)
                               : (i < home || home <= j);
      if (!stays) {
        g_slots[i] = g_slots[j];
        i = j;
      }
    }
    g_slots[i].ptr = 0;
  }
  Unlock();
  t_busy = 0;
}

__attribute__((constructor)) static void Start(void) {
  // backtrace() loads libgcc (and allocates) on first use: do it now, with
  // the hooks off for this thread.
  t_busy = 1;
  void* warm[4];
  backtrace(warm, 4);
  t_busy = 0;
  g_until_sample = NextGap();
  g_ready = 1;
}

// ---- interposed allocator entry points ----

void* malloc(size_t n) {
  void* p = __libc_malloc(n);
  Record(p, n);
  return p;
}

void free(void* p) {
  Forget(p);
  __libc_free(p);
}

void* calloc(size_t count, size_t n) {
  void* p = __libc_calloc(count, n);
  Record(p, count * n);
  return p;
}

void* realloc(void* old, size_t n) {
  Forget(old);
  void* p = __libc_realloc(old, n);
  Record(p, n);
  return p;
}

void* memalign(size_t align, size_t n) {
  void* p = __libc_memalign(align, n);
  Record(p, n);
  return p;
}

void* aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void** out, size_t align, size_t n) {
  void* p = __libc_memalign(align, n);
  if (p == NULL) return ENOMEM;
  Record(p, n);
  *out = p;
  return 0;
}
