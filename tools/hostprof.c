/* SIGPROF stack sampler for tools/hostprof.sh, loaded with LD_PRELOAD.
 *
 * HOSTPROF_HZ (default 1000) times a second the main thread's stack is
 * walked by frame pointers (build the program with
 * `-C force-frame-pointers=yes`). At exit one line per sample goes to
 * HOSTPROF_OUT, leaf first: a frame inside the executable as the address
 * `nm` prints for it, any other as `@<library>`. x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 48
#define SAMPLES (1 << 16)

static uintptr_t frames[SAMPLES][DEPTH];
static unsigned char depth[SAMPLES];
static volatile unsigned n_samples;
static uintptr_t stack_top;
static timer_t timer;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  (void)sig, (void)si;
  const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
  unsigned i = n_samples, d = 0;
  if (i >= SAMPLES) return;
  uintptr_t sp = r[REG_RSP], fp = r[REG_RBP];
  frames[i][d++] = r[REG_RIP];
  /* A frame lies between the interrupted stack pointer and the stack's
   * top; anything else in rbp is not a frame pointer. */
  while (d < DEPTH && fp >= sp && fp + 16 <= stack_top && !(fp & 7)) {
    uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
    if (!ret) break;
    frames[i][d++] = ret - 1; /* inside the call, not after it */
    if (next <= fp) break;
    sp = fp, fp = next;
  }
  depth[i] = d;
  n_samples = i + 1;
}

/* Executable mappings [lo, hi) from /proc/self/maps, and where the
 * program's own ELF header is mapped. */
static struct { uintptr_t lo, hi; char path[256]; } maps[256];
static int n_maps;
static char exe[256];
static uintptr_t exe_base;

static void read_maps(void) {
  FILE *f = fopen("/proc/self/maps", "r");
  char line[512], perms[8], path[256];
  uintptr_t lo, hi, off;
  if (readlink("/proc/self/exe", exe, sizeof exe - 1) < 0) exe[0] = 0;
  while (f && fgets(line, sizeof line, f) && n_maps < 256) {
    path[0] = 0;
    if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %255s", &lo, &hi, perms, &off, path) < 4) continue;
    if (!strcmp(path, "[stack]")) stack_top = hi;
    if (!strcmp(path, exe) && off == 0 && !exe_base) exe_base = lo;
    if (perms[2] != 'x') continue;
    maps[n_maps].lo = lo, maps[n_maps].hi = hi;
    strcpy(maps[n_maps++].path, path);
  }
  if (f) fclose(f);
}

__attribute__((constructor)) static void start(void) {
  read_maps();
  const char *hz = getenv("HOSTPROF_HZ");
  long ns = 1000000000 / (hz ? atol(hz) : 1000);
  struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
  sigaction(SIGPROF, &sa, 0);
  /* A monotonic timer, not ITIMER_PROF: CPU-time timers fire only at the
   * kernel's scheduler tick (often 250/s), this one at the rate asked
   * for. The profiled program is CPU-bound, so wall time is CPU time. */
  struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
  struct itimerspec it = {{0, ns}, {0, ns}};
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &it, 0);
}

__attribute__((destructor)) static void stop(void) {
  timer_delete(timer);
  n_maps = 0;
  read_maps();
  /* A position-independent executable's symbols are relative to where it
   * is loaded (ELF e_type 3); a fixed one's are absolute. */
  uintptr_t bias = exe_base && *(uint16_t *)(exe_base + 16) == 3 ? exe_base : 0;
  const char *out = getenv("HOSTPROF_OUT");
  FILE *f = fopen(out ? out : "hostprof.out", "w");
  for (unsigned i = 0; f && i < n_samples; i++) {
    for (unsigned d = 0; d < depth[i]; d++) {
      uintptr_t a = frames[i][d];
      const char *lib = "?";
      for (int m = 0; m < n_maps; m++) {
        if (a < maps[m].lo || a >= maps[m].hi) continue;
        if (!strcmp(maps[m].path, exe)) {
          fprintf(f, "%lu ", a - bias);
          lib = 0;
        } else {
          lib = strrchr(maps[m].path, '/') ? strrchr(maps[m].path, '/') + 1 : maps[m].path;
        }
        break;
      }
      if (lib) fprintf(f, "@%s ", *lib ? lib : "anon");
    }
    fputc('\n', f);
  }
  if (f) fclose(f);
  if (n_samples >= SAMPLES) fprintf(stderr, "hostprof: sample buffer full, later samples dropped\n");
}
