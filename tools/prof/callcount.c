/*
 * callcount.c -- LD_PRELOAD shim: heap calls (malloc + realloc) by
 * allocating stack.
 *
 *   gcc -O2 -fPIC -shared -o callcount.so callcount.c
 *   CALLCOUNT_OUT=calls.txt LD_PRELOAD=./callcount.so <program> ...
 *   ./symbolize.py calls.txt --top 40          # shares of the heap calls
 *   ./symbolize.py calls.txt --callers clone   # who makes the calls
 *
 * The count heapcount.so prints as one number, split by where it comes
 * from. Wraps malloc / calloc / realloc / free / posix_memalign and forwards
 * each to glibc's __libc_* entry point (no dlsym). Every malloc and every
 * realloc -- the "heap calls" of this repository; calloc and
 * posix_memalign are forwarded uncounted, as heapcount.so leaves them out of
 * that sum -- adds one to the count of the stack that made it. At exit the
 * counts are appended to CALLCOUNT_OUT (default callcount.<pid>.txt) in
 * sigprof.so's format -- one `S` line per 16 calls a stack made -- so
 * symbolize.py reads it unchanged and its shares are shares of the calls.
 * One summary line goes to standard error.
 *
 * A global spinlock serialises the stack table (fine for a handful of
 * threads). Calls made while the shim itself is busy (backtrace()'s first
 * call loads libgcc's unwinder; the exit dump uses stdio) are passed
 * through uncounted. The table lives in mmap'd memory, never on the heap it
 * measures.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);
extern void *__libc_memalign(size_t, size_t);

#define MAX_DEPTH 32
#define SKIP 2                   /* count() and the wrapper that called it */
#define MAX_STACKS (1u << 18)    /* stack 0 collects any overflow */
#define STACK_SLOTS (1u << 19)
#define CALLS_PER_SAMPLE 16

struct stack {
    uint64_t hash;
    int depth;
    void *frames[MAX_DEPTH];
};

static struct stack *stacks;
static uint32_t *stack_slots; /* hash slot -> stack id + 1 */
static uint32_t n_stacks = 1;
static uint64_t *calls;
static uint64_t total;

static atomic_flag lock = ATOMIC_FLAG_INIT;
static __thread int busy __attribute__((tls_model("initial-exec")));
static int ready;

static void *map(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static uint32_t stack_id(void **frames, int depth) {
    uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < depth; i++) h = (h ^ (uint64_t)(uintptr_t)frames[i]) * 1099511628211ull;
    size_t s = (size_t)(h >> 20) & (STACK_SLOTS - 1);
    for (; stack_slots[s]; s = (s + 1) & (STACK_SLOTS - 1)) {
        struct stack *st = &stacks[stack_slots[s] - 1];
        if (st->hash == h && st->depth == depth &&
            !memcmp(st->frames, frames, (size_t)depth * sizeof *frames))
            return stack_slots[s] - 1;
    }
    if (n_stacks == MAX_STACKS) return 0;
    uint32_t id = n_stacks++;
    stacks[id].hash = h;
    stacks[id].depth = depth;
    memcpy(stacks[id].frames, frames, (size_t)depth * sizeof *frames);
    stack_slots[s] = id + 1;
    return id;
}

/* Add one call to the caller's stack. */
static __attribute__((noinline)) void count(void) {
    if (!ready || busy) return;
    busy = 1;
    void *frames[MAX_DEPTH + SKIP];
    int depth = backtrace(frames, MAX_DEPTH + SKIP) - SKIP;
    while (atomic_flag_test_and_set_explicit(&lock, memory_order_acquire)) {
    }
    calls[stack_id(frames + SKIP, depth < 0 ? 0 : depth)]++;
    total++;
    atomic_flag_clear_explicit(&lock, memory_order_release);
    busy = 0;
}

void *malloc(size_t size) {
    count();
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) { return __libc_calloc(n, size); }

void *realloc(void *ptr, size_t size) {
    count();
    return __libc_realloc(ptr, size);
}

void free(void *ptr) { __libc_free(ptr); }

int posix_memalign(void **out, size_t align, size_t size) {
    if (!align || (align & (align - 1)) || align % sizeof(void *)) return EINVAL;
    void *p = __libc_memalign(align, size);
    if (!p) return ENOMEM;
    *out = p;
    return 0;
}

__attribute__((constructor)) static void start(void) {
    busy = 1;
    stacks = map(MAX_STACKS * sizeof *stacks);
    stack_slots = map(STACK_SLOTS * sizeof *stack_slots);
    calls = map(MAX_STACKS * sizeof *calls);
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, uncounted */
    ready = stacks && stack_slots && calls;
    busy = 0;
}

__attribute__((destructor)) static void dump(void) {
    if (!ready) return;
    busy = 1;
    while (atomic_flag_test_and_set_explicit(&lock, memory_order_acquire)) {
    }
    ready = 0;
    atomic_flag_clear_explicit(&lock, memory_order_release);
    long samples = 0;
    for (uint32_t i = 0; i < n_stacks; i++)
        samples += (long)((calls[i] + CALLS_PER_SAMPLE / 2) / CALLS_PER_SAMPLE);

    char fallback[64];
    const char *path = getenv("CALLCOUNT_OUT");
    if (!path) {
        snprintf(fallback, sizeof fallback, "callcount.%d.txt", (int)getpid());
        path = fallback;
    }
    fprintf(stderr, "callcount pid=%d calls=%llu stacks=%u\n", (int)getpid(),
            (unsigned long long)total, n_stacks);
    FILE *out = fopen(path, "a");
    if (!out) return;
    fprintf(out, "# pid %d samples %ld calls %llu\n", (int)getpid(), samples,
            (unsigned long long)total);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[512];
        while (fgets(line, sizeof line, maps))
            if (strchr(line, '/')) fprintf(out, "M %s", line);
        fclose(maps);
    }
    /* As in sigprof.c: name the string routines the ifuncs picked. */
    void *(*volatile cpy)(void *, const void *, size_t) = memcpy;
    void *(*volatile move)(void *, const void *, size_t) = memmove;
    int (*volatile compare)(const void *, const void *, size_t) = memcmp;
    void *(*volatile fill)(void *, int, size_t) = memset;
    fprintf(out, "X %p memcpy\nX %p memmove\nX %p memcmp\nX %p memset\n", (void *)cpy,
            (void *)move, (void *)compare, (void *)fill);
    for (uint32_t i = 0; i < n_stacks; i++) {
        uint64_t lines = (calls[i] + CALLS_PER_SAMPLE / 2) / CALLS_PER_SAMPLE;
        for (uint64_t n = 0; n < lines; n++) {
            fputc('S', out);
            for (int f = 0; f < stacks[i].depth; f++) fprintf(out, " %p", stacks[i].frames[f]);
            fputc('\n', out);
        }
    }
    fclose(out);
}
