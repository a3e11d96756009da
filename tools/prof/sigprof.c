/*
 * sigprof.c -- LD_PRELOAD sampling profiler: SIGPROF + backtrace().
 *
 *   gcc -O2 -fPIC -shared -o sigprof.so sigprof.c
 *   SIGPROF_OUT=samples.txt LD_PRELOAD=./sigprof.so <program> ...
 *   ./symbolize.py samples.txt            # self / inclusive shares by symbol
 *
 * A constructor arms ITIMER_PROF (process CPU time, 1 kHz unless
 * SIGPROF_HZ says otherwise); the handler stores the interrupted stack's
 * return addresses in a preallocated buffer and nothing else. At exit the
 * samples are appended to SIGPROF_OUT (default sigprof.<pid>.txt), one per
 * line, innermost frame first, after a copy of /proc/self/maps so that the
 * addresses can be turned into symbols offline with `nm`.
 *
 * backtrace() is not formally async-signal-safe: its first call loads
 * libgcc's unwinder (which allocates), so the constructor makes that call
 * before the timer starts; afterwards it only reads unwind tables.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_DEPTH 48
#define MAX_SAMPLES 200000

static void *(*frames)[MAX_DEPTH];
static unsigned char *depths;
static volatile sig_atomic_t n_samples, in_handler;

static void on_sigprof(int sig) {
    (void)sig;
    if (in_handler || n_samples >= MAX_SAMPLES) return;
    in_handler = 1;
    int slot = n_samples;
    depths[slot] = (unsigned char)backtrace(frames[slot], MAX_DEPTH);
    n_samples = slot + 1;
    in_handler = 0;
}

__attribute__((constructor)) static void start(void) {
    frames = calloc(MAX_SAMPLES, sizeof *frames);
    depths = calloc(MAX_SAMPLES, 1);
    if (!frames || !depths) return;
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    const char *hz_env = getenv("SIGPROF_HZ");
    long hz = hz_env ? atol(hz_env) : 1000;
    if (hz <= 0 || hz > 10000) hz = 1000;
    struct itimerval tick;
    tick.it_interval.tv_sec = 0;
    tick.it_interval.tv_usec = 1000000 / hz;
    tick.it_value = tick.it_interval;
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    if (!frames || !depths) return;

    char fallback[64];
    const char *path = getenv("SIGPROF_OUT");
    if (!path) {
        snprintf(fallback, sizeof fallback, "sigprof.%d.txt", (int)getpid());
        path = fallback;
    }
    FILE *out = fopen(path, "a");
    if (!out) return;
    fprintf(out, "# pid %d samples %d\n", (int)getpid(), (int)n_samples);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[512];
        while (fgets(line, sizeof line, maps))
            if (strchr(line, '/')) fprintf(out, "M %s", line);
        fclose(maps);
    }
    /* The string routines are ifuncs: `nm` lists the resolver, samples land
     * in the implementation it picked. Record where each really starts. */
    void *(*volatile copy)(void *, const void *, size_t) = memcpy;
    void *(*volatile move)(void *, const void *, size_t) = memmove;
    int (*volatile compare)(const void *, const void *, size_t) = memcmp;
    void *(*volatile fill)(void *, int, size_t) = memset;
    fprintf(out, "X %p memcpy\nX %p memmove\nX %p memcmp\nX %p memset\n", (void *)copy,
            (void *)move, (void *)compare, (void *)fill);
    for (int i = 0; i < n_samples; i++) {
        fputc('S', out);
        /* Frames 0 and 1 are the handler and the signal trampoline. */
        for (int f = 2; f < depths[i]; f++) fprintf(out, " %p", frames[i][f]);
        fputc('\n', out);
    }
    fclose(out);
}
