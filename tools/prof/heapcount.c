/*
 * heapcount.c -- LD_PRELOAD shim that counts heap calls.
 *
 *   gcc -O2 -fPIC -shared -o heapcount.so heapcount.c -ldl
 *   LD_PRELOAD=./heapcount.so <program> ...
 *
 * Wraps malloc / calloc / realloc / free / posix_memalign / aligned_alloc of
 * the process it is loaded into, forwards each to the next definition and
 * keeps relaxed atomic counters. At exit it prints one line to standard
 * error (or appends it to the file named by HEAPCOUNT_OUT):
 *
 *   heapcount pid=<pid> malloc=<n> calloc=<n> realloc=<n> free=<n>
 *             aligned=<n> requested_bytes=<n>
 *
 * "Heap calls" in CHANGES.md / ROADMAP.md is malloc + realloc (Rust's
 * `System` allocator reaches calloc only through `alloc_zeroed` and the
 * aligned entry points only for alignments above 16).
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdatomic.h>
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static void (*real_free)(void *);
static int (*real_posix_memalign)(void **, size_t, size_t);
static void *(*real_aligned_alloc)(size_t, size_t);

static atomic_ullong n_malloc, n_calloc, n_realloc, n_free, n_aligned, n_bytes;

/* dlsym() may itself call calloc before the real one is known. */
static char boot[4096];
static size_t boot_used;

static void *boot_alloc(size_t size) {
    size = (size + 15) & ~(size_t)15;
    if (boot_used + size > sizeof boot) abort();
    void *p = boot + boot_used;
    boot_used += size;
    return p;
}

static int from_boot(void *p) {
    return (char *)p >= boot && (char *)p < boot + sizeof boot;
}

static void resolve(void) {
    static int resolving;
    if (real_malloc || resolving) return;
    resolving = 1;
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_free = dlsym(RTLD_NEXT, "free");
    real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
    real_aligned_alloc = dlsym(RTLD_NEXT, "aligned_alloc");
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    resolving = 0;
}

void *malloc(size_t size) {
    resolve();
    if (!real_malloc) return boot_alloc(size);
    atomic_fetch_add_explicit(&n_malloc, 1, memory_order_relaxed);
    atomic_fetch_add_explicit(&n_bytes, size, memory_order_relaxed);
    return real_malloc(size);
}

void *calloc(size_t count, size_t size) {
    resolve();
    if (!real_calloc) return boot_alloc(count * size); /* boot[] is zeroed */
    atomic_fetch_add_explicit(&n_calloc, 1, memory_order_relaxed);
    atomic_fetch_add_explicit(&n_bytes, count * size, memory_order_relaxed);
    return real_calloc(count, size);
}

void *realloc(void *ptr, size_t size) {
    resolve();
    if (from_boot(ptr)) {
        void *fresh = malloc(size);
        if (fresh) memcpy(fresh, ptr, size); /* over-read stays inside boot[] */
        return fresh;
    }
    atomic_fetch_add_explicit(&n_realloc, 1, memory_order_relaxed);
    atomic_fetch_add_explicit(&n_bytes, size, memory_order_relaxed);
    return real_realloc(ptr, size);
}

void free(void *ptr) {
    if (!ptr || from_boot(ptr)) return;
    resolve();
    atomic_fetch_add_explicit(&n_free, 1, memory_order_relaxed);
    real_free(ptr);
}

int posix_memalign(void **out, size_t align, size_t size) {
    resolve();
    atomic_fetch_add_explicit(&n_aligned, 1, memory_order_relaxed);
    atomic_fetch_add_explicit(&n_bytes, size, memory_order_relaxed);
    return real_posix_memalign(out, align, size);
}

void *aligned_alloc(size_t align, size_t size) {
    resolve();
    atomic_fetch_add_explicit(&n_aligned, 1, memory_order_relaxed);
    atomic_fetch_add_explicit(&n_bytes, size, memory_order_relaxed);
    return real_aligned_alloc(align, size);
}

__attribute__((destructor)) static void report(void) {
    const char *path = getenv("HEAPCOUNT_OUT");
    FILE *out = path ? fopen(path, "a") : stderr;
    if (!out) out = stderr;
    fprintf(out,
            "heapcount pid=%d malloc=%llu calloc=%llu realloc=%llu free=%llu "
            "aligned=%llu requested_bytes=%llu\n",
            (int)getpid(), (unsigned long long)n_malloc, (unsigned long long)n_calloc,
            (unsigned long long)n_realloc, (unsigned long long)n_free,
            (unsigned long long)n_aligned, (unsigned long long)n_bytes);
    if (out != stderr) fclose(out);
}
