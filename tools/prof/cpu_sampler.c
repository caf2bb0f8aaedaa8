// CPU sampler, loaded with LD_PRELOAD.
//
// Every 0.5 ms of process CPU time (ITIMER_PROF) the SIGPROF handler records
// the interrupted call stack with backtrace() into a static buffer; nothing
// is allocated after start-up. The kernel checks CPU timers at its tick, so
// on a kernel with a coarser tick the samples come at tick rate instead; the
// header records the process CPU time so the real rate shows. At exit the
// samples are written, with the process's memory map, to cpu.<pid>.prof in
// the working directory, one stack per line. tools/prof/report.py
// symbolizes and tabulates them.
//
// Unlike gprof this needs no instrumented build and adds no per-call cost,
// so small, frequently called functions are not inflated. Run the profiled
// program under `setarch -R` so addresses agree between runs and samples
// from several runs can be merged.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <inttypes.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#define kIntervalUs 500
#define kMaxDepth 64
#define kMaxSamples (1 << 18)
// SIGPROF handler + the kernel's signal trampoline.
#define kSkipFrames 2

static void* g_frames[kMaxSamples][kMaxDepth];
static uint8_t g_depth[kMaxSamples];
static volatile sig_atomic_t g_count;
static volatile sig_atomic_t g_dropped;

static void OnProf(int sig) {
  (void)sig;
  const int saved_errno = errno;
  const int i = g_count;
  if (i < kMaxSamples) {
    g_depth[i] = (uint8_t)backtrace(g_frames[i], kMaxDepth);
    g_count = i + 1;
  } else {
    g_dropped = g_dropped + 1;
  }
  errno = saved_errno;
}

static void CopyFile(const char* from, FILE* to) {
  const int fd = open(from, O_RDONLY);
  if (fd < 0) return;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof buf)) > 0) fwrite(buf, 1, (size_t)n, to);
  close(fd);
}

__attribute__((constructor)) static void Start(void) {
  // backtrace() loads libgcc on first use, which is not safe inside a
  // signal handler: do it now.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = OnProf;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval tv = {{0, kIntervalUs}, {0, kIntervalUs}};
  setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void Stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof path, "cpu.%d.prof", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  struct timespec cpu;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  fprintf(out, "# cpu interval_us=%d samples=%d dropped=%d cpu_ms=%ld\n",
          kIntervalUs, (int)g_count, (int)g_dropped,
          (long)cpu.tv_sec * 1000 + cpu.tv_nsec / 1000000);
  fputs("# maps\n", out);
  CopyFile("/proc/self/maps", out);
  fputs("# stacks\n", out);
  for (int i = 0; i < g_count; ++i) {
    for (int d = kSkipFrames; d < g_depth[i]; ++d) {
      fprintf(out, d == kSkipFrames ? "%" PRIxPTR : " %" PRIxPTR,
              (uintptr_t)g_frames[i][d]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
