/*
 * liveheap.c -- LD_PRELOAD shim: live heap bytes by allocation stack, at the
 * peak.
 *
 *   gcc -O2 -fPIC -shared -o liveheap.so liveheap.c
 *   LIVEHEAP_OUT=peak.txt LD_PRELOAD=./liveheap.so <program> ...
 *   ./symbolize.py peak.txt               # shares of the peak live heap
 *
 * Wraps malloc / calloc / realloc / free / posix_memalign and forwards each
 * to glibc's __libc_* entry point (no dlsym, so no bootstrap allocator).
 * Every tracked block is remembered with its requested size and the stack
 * that allocated it; each stack keeps its live bytes. Each time the running
 * total passes the last copied total by 1 MiB, the per-stack table is
 * copied, so at exit the copy holds the heap within 1 MiB of its peak. The
 * copy is appended to LIVEHEAP_OUT (default liveheap.<pid>.txt) in
 * sigprof.so's format -- one `S` line per 16 KiB a stack holds -- so
 * symbolize.py reads it unchanged and its shares are shares of the peak.
 * One summary line goes to standard error.
 *
 * A global spinlock serialises the tables (fine for a handful of threads).
 * Allocations made while the shim itself is busy (backtrace()'s first call
 * loads libgcc's unwinder; the exit dump uses stdio) are passed through
 * untracked, and freeing an untracked block is a plain free. The tables
 * live in mmap'd memory, never on the heap they measure.
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
#define SKIP 2                   /* record() and the wrapper that called it */
#define MAX_STACKS (1u << 18)    /* stack 0 collects any overflow */
#define STACK_SLOTS (1u << 19)
#define COPY_STEP (1LL << 20)
#define BYTES_PER_SAMPLE 16384

struct stack {
    uint64_t hash;
    int depth;
    void *frames[MAX_DEPTH];
};

struct block {
    uintptr_t ptr; /* 0: empty slot */
    uint64_t size;
    uint32_t stack;
};

static struct stack *stacks;
static uint32_t *stack_slots; /* hash slot -> stack id + 1 */
static uint32_t n_stacks = 1;
static int64_t *live, *copy;
static uint32_t copied_stacks;
static int64_t total, copied_total, peak;

static struct block *blocks;
static size_t block_cap, n_blocks;

static atomic_flag lock = ATOMIC_FLAG_INIT;
static __thread int busy __attribute__((tls_model("initial-exec")));
static int ready;

static void *map(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static size_t slot_of(uintptr_t ptr, size_t cap) {
    uint64_t h = (uint64_t)ptr * 0x9e3779b97f4a7c15ull;
    return (size_t)(h >> 17) & (cap - 1);
}

static int grow_blocks(void) {
    size_t cap = block_cap ? block_cap * 2 : (1u << 20);
    struct block *fresh = map(cap * sizeof *fresh);
    if (!fresh) return 0;
    for (size_t i = 0; i < block_cap; i++) {
        if (!blocks[i].ptr) continue;
        size_t s = slot_of(blocks[i].ptr, cap);
        while (fresh[s].ptr) s = (s + 1) & (cap - 1);
        fresh[s] = blocks[i];
    }
    if (blocks) munmap(blocks, block_cap * sizeof *blocks);
    blocks = fresh;
    block_cap = cap;
    return 1;
}

/* Linear probing with backward-shift deletion: no tombstones. */
static void forget(uintptr_t ptr) {
    if (!block_cap) return;
    size_t s = slot_of(ptr, block_cap);
    while (blocks[s].ptr && blocks[s].ptr != ptr) s = (s + 1) & (block_cap - 1);
    if (!blocks[s].ptr) return;
    live[blocks[s].stack] -= (int64_t)blocks[s].size;
    total -= (int64_t)blocks[s].size;
    n_blocks--;
    size_t hole = s;
    for (size_t j = (s + 1) & (block_cap - 1); blocks[j].ptr; j = (j + 1) & (block_cap - 1)) {
        size_t home = slot_of(blocks[j].ptr, block_cap);
        /* Move j into the hole unless its home lies cyclically in (hole, j]. */
        int stays = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
        if (stays) continue;
        blocks[hole] = blocks[j];
        hole = j;
    }
    blocks[hole].ptr = 0;
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

static void lock_tables(void) {
    while (atomic_flag_test_and_set_explicit(&lock, memory_order_acquire)) {
    }
}

static void unlock_tables(void) { atomic_flag_clear_explicit(&lock, memory_order_release); }

/* Forget `old` (if tracked) and remember `ptr` with the caller's stack. */
static __attribute__((noinline)) void record(void *old, void *ptr, size_t size) {
    if (!ready || busy) return;
    busy = 1;
    void *frames[MAX_DEPTH + SKIP];
    int depth = ptr ? backtrace(frames, MAX_DEPTH + SKIP) - SKIP : 0;
    lock_tables();
    if (old) forget((uintptr_t)old);
    if (ptr && ((n_blocks + 1) * 2 <= block_cap || grow_blocks())) {
        uint32_t id = stack_id(frames + SKIP, depth < 0 ? 0 : depth);
        size_t s = slot_of((uintptr_t)ptr, block_cap);
        while (blocks[s].ptr) s = (s + 1) & (block_cap - 1);
        blocks[s] = (struct block){(uintptr_t)ptr, size, id};
        n_blocks++;
        live[id] += (int64_t)size;
        total += (int64_t)size;
        if (total > peak) peak = total;
        if (total >= copied_total + COPY_STEP) {
            memcpy(copy, live, n_stacks * sizeof *live);
            copied_stacks = n_stacks;
            copied_total = total;
        }
    }
    unlock_tables();
    busy = 0;
}

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    record(NULL, p, size);
    return p;
}

void *calloc(size_t count, size_t size) {
    void *p = __libc_calloc(count, size);
    record(NULL, p, count * size);
    return p;
}

void *realloc(void *ptr, size_t size) {
    void *p = __libc_realloc(ptr, size);
    if (p || !size) record(ptr, p, size);
    return p;
}

void free(void *ptr) {
    if (ptr) record(ptr, NULL, 0);
    __libc_free(ptr);
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (!align || (align & (align - 1)) || align % sizeof(void *)) return EINVAL;
    void *p = __libc_memalign(align, size);
    if (!p) return ENOMEM;
    record(NULL, p, size);
    *out = p;
    return 0;
}

__attribute__((constructor)) static void start(void) {
    busy = 1;
    stacks = map(MAX_STACKS * sizeof *stacks);
    stack_slots = map(STACK_SLOTS * sizeof *stack_slots);
    live = map(MAX_STACKS * sizeof *live);
    copy = map(MAX_STACKS * sizeof *copy);
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, untracked */
    ready = stacks && stack_slots && live && copy && grow_blocks();
    busy = 0;
}

__attribute__((destructor)) static void dump(void) {
    if (!ready) return;
    busy = 1;
    lock_tables();
    ready = 0;
    unlock_tables();
    long samples = 0;
    for (uint32_t i = 0; i < copied_stacks; i++)
        if (copy[i] > 0) samples += (copy[i] + BYTES_PER_SAMPLE / 2) / BYTES_PER_SAMPLE;

    char fallback[64];
    const char *path = getenv("LIVEHEAP_OUT");
    if (!path) {
        snprintf(fallback, sizeof fallback, "liveheap.%d.txt", (int)getpid());
        path = fallback;
    }
    fprintf(stderr, "liveheap pid=%d peak_live_bytes=%lld copied_live_bytes=%lld stacks=%u\n",
            (int)getpid(), (long long)peak, (long long)copied_total, n_stacks);
    FILE *out = fopen(path, "a");
    if (!out) return;
    fprintf(out, "# pid %d samples %ld live_bytes %lld\n", (int)getpid(), samples,
            (long long)copied_total);
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
    for (uint32_t i = 0; i < copied_stacks; i++) {
        long lines = copy[i] > 0 ? (copy[i] + BYTES_PER_SAMPLE / 2) / BYTES_PER_SAMPLE : 0;
        for (long n = 0; n < lines; n++) {
            fputc('S', out);
            for (int f = 0; f < stacks[i].depth; f++) fprintf(out, " %p", stacks[i].frames[f]);
            fputc('\n', out);
        }
    }
    fclose(out);
}
