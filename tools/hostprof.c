/* Host profiler for tools/hostprof.sh, loaded with LD_PRELOAD. Two builds
 * of this one file:
 *
 *   default           a SIGPROF stack sampler: HOSTPROF_HZ (default 1000)
 *                     times a second the main thread's stack is walked.
 *   -DHOSTPROF_ALLOC  an allocation census: malloc, calloc, realloc and
 *                     posix_memalign are wrapped (dlsym(RTLD_NEXT)) and
 *                     every EVERY-th call (7) has its caller's stack
 *                     recorded.
 *
 * Stacks are walked by frame pointers (build the program with
 * `-C force-frame-pointers=yes`). At exit one line per sample goes to
 * HOSTPROF_OUT, leaf first: a frame inside the executable as the address
 * `nm` prints for it, any other as `@<library>`. The census folds equal
 * stacks and starts each line with how many sampled calls had that stack.
 * x86-64 Linux only. */
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

static uintptr_t stack_top;

/* Walk the frame-pointer chain from `fp` (a frame at or above `sp`) into
 * `out`, starting with `first` unless it is 0. Returns the depth. */
static unsigned walk(uintptr_t first, uintptr_t sp, uintptr_t fp, uintptr_t *out) {
  unsigned d = 0;
  if (first) out[d++] = first;
  /* A frame lies between the interrupted stack pointer and the stack's
   * top; anything else in rbp is not a frame pointer. */
  while (d < DEPTH && fp >= sp && fp + 16 <= stack_top && !(fp & 7)) {
    uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
    if (!ret) break;
    out[d++] = ret - 1; /* inside the call, not after it */
    if (next <= fp) break;
    sp = fp, fp = next;
  }
  return d;
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
  n_maps = 0;
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

/* One stack as text: executable frames as `nm` addresses, others as
 * `@<library>`. */
static void print_stack(FILE *f, const uintptr_t *frames, unsigned depth) {
  /* A position-independent executable's symbols are relative to where it
   * is loaded (ELF e_type 3); a fixed one's are absolute. */
  uintptr_t bias = exe_base && *(uint16_t *)(exe_base + 16) == 3 ? exe_base : 0;
  for (unsigned d = 0; d < depth; d++) {
    uintptr_t a = frames[d];
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

static FILE *open_out(void) {
  const char *out = getenv("HOSTPROF_OUT");
  return fopen(out ? out : "hostprof.out", "w");
}

#ifndef HOSTPROF_ALLOC

#define SAMPLES (1 << 16)

static uintptr_t frames[SAMPLES][DEPTH];
static unsigned char depth[SAMPLES];
static volatile unsigned n_samples;
static timer_t timer;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
  (void)sig, (void)si;
  const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
  unsigned i = n_samples;
  if (i >= SAMPLES) return;
  depth[i] = walk(r[REG_RIP], r[REG_RSP], r[REG_RBP], frames[i]);
  n_samples = i + 1;
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
  read_maps();
  FILE *f = open_out();
  for (unsigned i = 0; f && i < n_samples; i++) print_stack(f, frames[i], depth[i]);
  if (f) fclose(f);
  if (n_samples >= SAMPLES) fprintf(stderr, "hostprof: sample buffer full, later samples dropped\n");
}

#else /* HOSTPROF_ALLOC */

#include <dlfcn.h>
#include <errno.h>

/* Distinct sampled stacks, folded in an open-addressed table: recording
 * allocates nothing, and a full run fits however many calls it makes. */
#define SLOTS (1 << 14)
/* The sampling period: prime, so a loop that allocates a fixed number of
 * times per iteration is not seen at the same call every time. */
#define EVERY 7

static struct {
  unsigned long count;
  unsigned depth;
  uintptr_t frames[DEPTH];
} stacks[SLOTS];
static unsigned long calls, dropped;
static int armed, busy;

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static int (*real_posix_memalign)(void **, size_t, size_t);
static void (*real_free)(void *);

/* `dlsym` may allocate before the functions it looks up are known: those
 * few requests are served from here and never freed. */
static char boot[4096] __attribute__((aligned(16)));
static size_t boot_used;

static void *boot_alloc(size_t n) {
  n = (n + 15) & ~(size_t)15;
  if (boot_used + n > sizeof boot) return 0;
  boot_used += n;
  return boot + boot_used - n;
}

static int in_boot(const void *p) {
  return (const char *)p >= boot && (const char *)p < boot + sizeof boot;
}

static void resolve(void) {
  static int resolving;
  if (resolving) return;
  resolving = 1;
  real_calloc = dlsym(RTLD_NEXT, "calloc");
  real_realloc = dlsym(RTLD_NEXT, "realloc");
  real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
  real_free = dlsym(RTLD_NEXT, "free");
  real_malloc = dlsym(RTLD_NEXT, "malloc");
  resolving = 0;
}

/* Called from a wrapper: count the call, and on every EVERY-th one fold
 * the wrapper's caller's stack into the table. */
__attribute__((noinline)) static void record(void) {
  if (!armed || __atomic_add_fetch(&calls, 1, __ATOMIC_RELAXED) % EVERY) return;
  /* Another thread is recording: drop this sample rather than wait
   * inside the allocator. */
  if (__atomic_exchange_n(&busy, 1, __ATOMIC_ACQUIRE)) {
    __atomic_add_fetch(&dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  uintptr_t st[DEPTH + 1];
  uintptr_t fp = (uintptr_t)__builtin_frame_address(0);
  /* st[0] is the return into the wrapper: the stack starts above it. */
  unsigned d = walk(0, fp, fp, st);
  unsigned n = d ? d - 1 : 0;
  unsigned long h = 14695981039346656037ul, probe = 0;
  for (unsigned i = 0; i < n; i++) h = (h ^ st[i + 1]) * 1099511628211ul;
  for (; probe < SLOTS; probe++) {
    unsigned long s = (h + probe) & (SLOTS - 1);
    if (stacks[s].count == 0) {
      stacks[s].depth = n;
      memcpy(stacks[s].frames, st + 1, n * sizeof *st);
    } else if (stacks[s].depth != n || memcmp(stacks[s].frames, st + 1, n * sizeof *st)) {
      continue;
    }
    stacks[s].count++;
    break;
  }
  if (probe == SLOTS) dropped++; /* the table is full */
  __atomic_store_n(&busy, 0, __ATOMIC_RELEASE);
}

void *malloc(size_t n) {
  if (!real_malloc) resolve();
  if (!real_malloc) return boot_alloc(n);
  record();
  return real_malloc(n);
}

void *calloc(size_t k, size_t n) {
  if (!real_calloc) resolve();
  if (!real_calloc) return boot_alloc(k * n); /* static, so already zero */
  record();
  return real_calloc(k, n);
}

void *realloc(void *p, size_t n) {
  if (!real_realloc) resolve();
  if (in_boot(p)) {
    size_t room = boot + sizeof boot - (char *)p;
    void *q = malloc(n);
    if (q) memcpy(q, p, n < room ? n : room);
    return q;
  }
  if (!real_realloc) return p ? 0 : boot_alloc(n);
  record();
  return real_realloc(p, n);
}

int posix_memalign(void **out, size_t align, size_t n) {
  if (!real_posix_memalign) resolve();
  if (!real_posix_memalign) return ENOMEM;
  record();
  return real_posix_memalign(out, align, n);
}

void free(void *p) {
  if (in_boot(p)) return;
  if (!real_free) resolve();
  if (real_free) real_free(p);
}

__attribute__((constructor)) static void start(void) {
  read_maps();
  armed = 1;
}

__attribute__((destructor)) static void stop(void) {
  armed = 0;
  read_maps();
  FILE *f = open_out();
  for (unsigned long s = 0; f && s < SLOTS; s++) {
    if (!stacks[s].count) continue;
    fprintf(f, "%lu ", stacks[s].count);
    print_stack(f, stacks[s].frames, stacks[s].depth);
  }
  if (f) fclose(f);
  if (dropped) fprintf(stderr, "hostprof: %lu sampled allocations dropped\n", dropped);
}

#endif
