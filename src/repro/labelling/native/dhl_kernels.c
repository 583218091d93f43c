/*
 * DHL kernels over the flat CSR buffers: the pair and set-to-set
 * queries (Section 4.3), one shard's share of a sharded batch and the
 * parent's min-plus combine of the boundary route, the two maintenance
 * sweeps of the Engine contract (Algorithms 2 + 3 over the shortcuts,
 * 4 + 5 over the labels, each for a whole mixed batch) and the build:
 * every combinatorial step of the multilevel partitioner (dhl_part_*,
 * a context that bisects one subset after another; tie rules in their
 * section) and Algorithm 1's top-down pass,
 * and the service's result cache: the probe and the fill of its
 * set-associative pair table.
 * Plain C99 over int64_t / int32_t / double / uint8_t pointers; built
 * at first use by repro.labelling.native and called through ctypes,
 * which validates dtype, contiguity, alignment and lengths, and
 * range-checks every permutation, side byte and maintenance id, before
 * a pointer gets here. The query kernels, the sweeps and the label
 * build read their owners' buffers through bound records; the query
 * kernels check their own vertex ids and row maps before they read a
 * row.
 *
 * The sweeps are scalar fixpoints in the paper's order over an
 * array-backed binary min-heap. The heap is lazy: an in_queue byte per
 * item drops pushes of queued items, and an item re-enters after its
 * pop. The shortcut heap holds weight cells; the label heap holds
 * vertices, each pop handling all of the vertex's queued hub columns.
 * Both sweeps hold one invariant:
 *
 *   - Pop order: a cell pops after every cell of a deeper owner, a
 *     vertex after all its ancestors; each item pops at most once.
 *   - Seeds only read and queue. A raised change flags as suspect each
 *     dependent whose pre-batch value it realised; a lowered change
 *     queues what it may lower.
 *   - Every write is a suspect's recompute at its pop (Property 3.1, or
 *     Algorithm 5's recompute) from witnesses already final, or a
 *     relaxation min(current, a + b) with a and b each final or never
 *     suspect.
 *   - Relaxations skip suspects (the recompute covers them) and no
 *     prune reads a suspect: a label relaxation through a lowered slot
 *     (lo, hi) runs at lo's pop, when row hi is final.
 *   - Tightness tests compare pre-batch operands (a rewritten cell's
 *     first_old, a changed slot's old weight). An item the batch has
 *     already lowered never turns suspect: relaxations finish it.
 *
 * So a one-kind batch writes what Algorithm 2/4 or 3/5 alone writes,
 * and in a mixed batch each moved cell and entry is written, and
 * counted, once; every guard is the strict-improvement or
 * exact-equality one of the Python oracle sweeps
 * (tests/oracles/maintenance.py), so weights and labels converge to the
 * same bits. Scratch is O(touched): the heap grows by
 * doubling from the seed count; the in_queue maps are sized to the
 * cells or the vertices, the shortcut sweep's two slot maps (one int32
 * per vertex each, filled from one pair's rows and cleared at every
 * pop) to the vertices, and the label sweep's suspect map to the label
 * store. Every map is a calloc, so a large one commits only the pages
 * a sweep touches.
 *
 * A sweep hands back what it touched, so its caller never scans a
 * store-sized array: the first time it sets a changed mark it also
 * appends that cell (label position) to the caller's int64 touched list
 * and bumps count[0]; the label sweep also sets a per-vertex byte mark
 * and appends each vertex whose entries first change to a second list,
 * count[1] long. The lists are the caller's np.empty buffers of the
 * universe size, committed page by page as they are written. A failed
 * allocation returns DHL_NOMEM with the marks, lists and counts still
 * describing every write made so far.
 *
 * Build: cc -O3 -fPIC -shared -ffp-contract=off (no -ffast-math: sums
 * must round exactly as numpy's do).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DHL_NOMEM (-1)
#define DHL_BAD_ID (-2)   /* a query id outside [0, n) */
#define DHL_BAD_ROWS (-3) /* minus the shard: a row map past its rows */
#define QUEUED 1  /* in_queue bits: the item waits in the heap, */
#define SUSPECT 2 /* its pop recomputes it, */
#define LOWERED 4 /* or its pop lowers it to its direct weight */

/* ------------------------------------------------------------------ */
/* lazy binary min-heap of (key, item)                                 */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *keys;
    int64_t *items;
    uint8_t *in_queue;
    int64_t size;
    int64_t cap;
} heap_t;

static int heap_init(heap_t *h, int64_t universe, int64_t seeds) {
    h->size = 0;
    h->cap = seeds > 16 ? seeds : 16;
    h->keys = malloc((size_t)h->cap * sizeof(int64_t));
    h->items = malloc((size_t)h->cap * sizeof(int64_t));
    h->in_queue = calloc(universe > 0 ? (size_t)universe : 1, 1);
    return (h->keys && h->items && h->in_queue) ? 0 : DHL_NOMEM;
}

static void heap_free(heap_t *h) {
    free(h->keys);
    free(h->items);
    free(h->in_queue);
}

/* Queue item unless it is queued already; DHL_NOMEM when growth fails. */
static int heap_push(heap_t *h, int64_t key, int64_t item) {
    if (h->in_queue[item])
        return 0;
    if (h->size == h->cap) {
        int64_t cap = 2 * h->cap;
        int64_t *keys = realloc(h->keys, (size_t)cap * sizeof(int64_t));
        if (!keys)
            return DHL_NOMEM;
        h->keys = keys;
        int64_t *items = realloc(h->items, (size_t)cap * sizeof(int64_t));
        if (!items)
            return DHL_NOMEM;
        h->items = items;
        h->cap = cap;
    }
    h->in_queue[item] = QUEUED;
    int64_t i = h->size++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (h->keys[parent] <= key)
            break;
        h->keys[i] = h->keys[parent];
        h->items[i] = h->items[parent];
        i = parent;
    }
    h->keys[i] = key;
    h->items[i] = item;
    return 0;
}

/* Queue item with the state bits flag (a queued item gains them). */
static int heap_flag(heap_t *h, int64_t key, int64_t item, uint8_t flag) {
    int status = heap_push(h, key, item);
    if (!status)
        h->in_queue[item] |= flag;
    return status;
}

static int64_t heap_pop(heap_t *h) {
    int64_t top = h->items[0];
    int64_t size = --h->size;
    if (size > 0) {
        int64_t key = h->keys[size], item = h->items[size];
        int64_t i = 0;
        for (;;) {
            int64_t child = 2 * i + 1;
            if (child >= size)
                break;
            if (child + 1 < size && h->keys[child + 1] < h->keys[child])
                child++;
            if (key <= h->keys[child])
                break;
            h->keys[i] = h->keys[child];
            h->items[i] = h->items[child];
            i = child;
        }
        h->keys[i] = key;
        h->items[i] = item;
    }
    h->in_queue[top] = 0;
    return top;
}

/* First write to cell: mark it, keep its pre-batch weight, list it. */
static inline void mark_cell(int64_t cell, const double *weights,
                             uint8_t *changed, double *first_old,
                             int64_t *touched, int64_t *count)
{
    if (!changed[cell]) {
        changed[cell] = 1;
        first_old[cell] = weights[cell];
        touched[count[0]++] = cell;
    }
}

/* Label position pos of vertex v changed: mark and list it, and v the
   first time one of its entries changes. */
static inline void mark_entry(int64_t pos, int64_t v, uint8_t *changed,
                              int64_t *touched, uint8_t *vertex_marks,
                              int64_t *touched_vertices, int64_t *count)
{
    if (changed[pos])
        return;
    changed[pos] = 1;
    touched[count[0]++] = pos;
    if (!vertex_marks[v]) {
        vertex_marks[v] = 1;
        touched_vertices[count[1]++] = v;
    }
}

/* ------------------------------------------------------------------ */
/* queries                                                             */
/* ------------------------------------------------------------------ */

/*
 * The kernels read their owners' buffers through bound records: each
 * owner's arrays are checked once on the Python side and their
 * addresses written to one record of int64 fields, which every call
 * passes by pointer (repro.labelling.native.engine: LABELS_RECORD,
 * LCA_RECORD, SHARD_RECORD, ROUTE_RECORD, STORE_RECORD). The record is
 * rebound whenever its owner holds another array, so an address here is
 * always one of a live buffer the owner still holds.
 */
#define BOUND(type, addr) ((type *)(uintptr_t)(addr))

/* A flat label store: n vertices, label v at values + offsets[v] in a
   buffer of capacity doubles. */
typedef struct {
    int64_t n;
    int64_t values, offsets; /* addresses */
    int64_t capacity;
} labels_record_t;

/*
 * H_Q's LCA tables (QueryHierarchy's five arrays): a vertex's partition-tree
 * node, each node's depth, its vend chain (chain_width entries a node)
 * and each vertex's tau. A node's bitstring is a 1 followed by its path
 * bits, root first; path holds those path bits left-aligned in `words`
 * uint64 words a node, zero past its depth, so any depth is exact.
 */
typedef struct {
    int64_t n, words, chain_width;
    int64_t node_of, depth, path, chain, tau; /* addresses */
} lca_record_t;

typedef struct {
    const int64_t *node_of;
    const int64_t *depth;
    const uint64_t *path;
    int64_t words;
    const int64_t *chain;
    int64_t chain_width;
    const int64_t *tau;
} lca_t;

static lca_t lca_open(const lca_record_t *r)
{
    lca_t l = {BOUND(const int64_t, r->node_of), BOUND(const int64_t, r->depth),
               BOUND(const uint64_t, r->path), r->words,
               BOUND(const int64_t, r->chain), r->chain_width,
               BOUND(const int64_t, r->tau)};
    return l;
}

/*
 * K = |anc(s) ∩ anc(t)|: the LCA depth is min(ds, dt, common prefix
 * length of the two paths), the prefix found by one xor and one clz a
 * word; K is the node's vend chain at that depth clamped by both tau.
 * 0 across components.
 */
static inline int64_t common_ancestors(int64_t sv, int64_t tv, const lca_t *l)
{
    int64_t ns = l->node_of[sv], nt = l->node_of[tv];
    int64_t ds = l->depth[ns], dt = l->depth[nt];
    int64_t d = ds < dt ? ds : dt;
    const uint64_t *ps = l->path + ns * l->words;
    const uint64_t *pt = l->path + nt * l->words;
    for (int64_t w = 0; 64 * w < d; w++) {
        uint64_t diff = ps[w] ^ pt[w];
        if (diff) {
            int64_t common = 64 * w + __builtin_clzll(diff);
            d = common < d ? common : d;
            break;
        }
    }
    int64_t kk = l->chain[ns * l->chain_width + d] - 1;
    if (l->tau[sv] < kk)
        kk = l->tau[sv];
    if (l->tau[tv] < kk)
        kk = l->tau[tv];
    return kk + 1;
}

/*
 * 0 when every id of the count pairs (s[p * stride], t[p * stride])
 * lies in [0, n), else DHL_BAD_ID: the query kernels check their ids against
 * the bound stores before they read a row (read as unsigned, a
 * negative id is a huge one).
 */
static int64_t check_pairs(int64_t n, int64_t count, const int64_t *s,
                           const int64_t *t, int64_t stride)
{
    for (int64_t p = 0; p < count; p++)
        if ((uint64_t)s[p * stride] >= (uint64_t)n ||
            (uint64_t)t[p * stride] >= (uint64_t)n)
            return DHL_BAD_ID;
    return 0;
}

/*
 * k[p] = K of (s[p * stride], t[p * stride]):
 * QueryEngine.common_ancestor_counts. Returns 0, or DHL_BAD_ID
 * (nothing written) for an id outside [0, n).
 */
int64_t dhl_common_ancestors(const lca_record_t *r, int64_t count,
                             const int64_t *s, const int64_t *t,
                             int64_t stride, int64_t *k)
{
    const lca_t l = lca_open(r);
    if (check_pairs(r->n, count, s, t, stride))
        return DHL_BAD_ID;
    for (int64_t p = 0; p < count; p++)
        k[p] = common_ancestors(s[p * stride], t[p * stride], &l);
    return 0;
}

/*
 * min over i < kk of a[i] + b[i]; inf when kk <= 0. Four running
 * minima: the minimum of a set of doubles does not depend on the order
 * it is taken in, and each sum is one rounding, as in numpy.
 */
static inline double min_sum(const double *a, const double *b, int64_t kk)
{
    double m0 = INFINITY, m1 = INFINITY, m2 = INFINITY, m3 = INFINITY;
    int64_t i = 0;
    for (; i + 4 <= kk; i += 4) {
        double c0 = a[i] + b[i], c1 = a[i + 1] + b[i + 1];
        double c2 = a[i + 2] + b[i + 2], c3 = a[i + 3] + b[i + 3];
        m0 = c0 < m0 ? c0 : m0;
        m1 = c1 < m1 ? c1 : m1;
        m2 = c2 < m2 ? c2 : m2;
        m3 = c3 < m3 ? c3 : m3;
    }
    for (; i < kk; i++) {
        double c = a[i] + b[i];
        m0 = c < m0 ? c : m0;
    }
    m0 = m1 < m0 ? m1 : m0;
    m2 = m3 < m2 ? m3 : m2;
    return m2 < m0 ? m2 : m0;
}

/* Two label stores (one twice when undirected) and their LCA tables. */
typedef struct {
    const double *values_s;
    const int64_t *offsets_s;
    const double *values_t;
    const int64_t *offsets_t;
    lca_t lca;
} pair_store_t;

static pair_store_t pair_open(const labels_record_t *ls,
                              const labels_record_t *lt,
                              const lca_record_t *l)
{
    pair_store_t q = {BOUND(const double, ls->values),
                      BOUND(const int64_t, ls->offsets),
                      BOUND(const double, lt->values),
                      BOUND(const int64_t, lt->offsets), lca_open(l)};
    return q;
}

/*
 * out[p] = min over i < K of values_s[offsets_s[s[p]] + i]
 *                          + values_t[offsets_t[t[p]] + i],
 * gather_pairs' contract: K == 0 -> inf, s == t -> 0.0 and rank -1,
 * ranks[p] the first minimising i (argmin's tie rule), -1 on inf;
 * ranks may be NULL. Pair p's ends are s[p * stride] and t[p * stride],
 * so an (m, 2) pair array is read in place (t = s + 1, stride 2).
 */
static void gather_pairs(const pair_store_t *q, int64_t count,
                         const int64_t *s, const int64_t *t, int64_t stride,
                         double *out, int64_t *ranks)
{
    for (int64_t p = 0; p < count; p++) {
        int64_t sv = s[p * stride], tv = t[p * stride];
        if (ranks)
            ranks[p] = -1;
        if (sv == tv) {
            out[p] = 0.0;
            continue;
        }
        const double *a = q->values_s + q->offsets_s[sv];
        const double *b = q->values_t + q->offsets_t[tv];
        double best = min_sum(a, b, common_ancestors(sv, tv, &q->lca));
        out[p] = best;
        if (ranks && best < INFINITY) {
            int64_t i = 0;
            while (a[i] + b[i] != best)
                i++;
            ranks[p] = i;
        }
    }
}

/* The ids a pair store and its tables both cover. */
static int64_t store_vertices(const labels_record_t *ls,
                              const labels_record_t *lt,
                              const lca_record_t *l)
{
    int64_t n = ls->n < lt->n ? ls->n : lt->n;
    return l->n < n ? l->n : n;
}

/* gather_pairs over bound records; DHL_BAD_ID (nothing written) for an
 * id outside [0, n). */
int64_t dhl_gather_pairs(const labels_record_t *ls,
                         const labels_record_t *lt, const lca_record_t *l,
                         int64_t count, const int64_t *s, const int64_t *t,
                         int64_t stride, double *out, int64_t *ranks)
{
    const pair_store_t q = pair_open(ls, lt, l);
    if (check_pairs(store_vertices(ls, lt, l), count, s, t, stride))
        return DHL_BAD_ID;
    gather_pairs(&q, count, s, t, stride, out, ranks);
    return 0;
}

/* row[j] = the pair answer of (sv, targets[j]): one set-kernel row. */
static void matrix_row(const pair_store_t *q, int64_t sv,
                       int64_t num_targets, const int64_t *targets,
                       double *row)
{
    const double *a = q->values_s + q->offsets_s[sv];
    for (int64_t j = 0; j < num_targets; j++) {
        int64_t tv = targets[j];
        row[j] = sv == tv
            ? 0.0
            : min_sum(a, q->values_t + q->offsets_t[tv],
                      common_ancestors(sv, tv, &q->lca));
    }
}

/*
 * out[u * num_targets + j] = the pair answer of (sources[u],
 * targets[j]), written row by row: QueryEngine.distance_matrix's
 * contract, equal bit for bit to dhl_gather_pairs on the expanded
 * pairs, with no pair arrays. DHL_BAD_ID (nothing written) for an id
 * outside [0, n).
 */
int64_t dhl_distance_matrix(const labels_record_t *ls,
                            const labels_record_t *lt, const lca_record_t *l,
                            int64_t num_sources, const int64_t *sources,
                            int64_t num_targets, const int64_t *targets,
                            double *out)
{
    const pair_store_t q = pair_open(ls, lt, l);
    int64_t n = store_vertices(ls, lt, l);
    if (check_pairs(n, num_sources, sources, sources, 1) ||
        check_pairs(n, num_targets, targets, targets, 1))
        return DHL_BAD_ID;
    for (int64_t u = 0; u < num_sources; u++)
        matrix_row(&q, sources[u], num_targets, targets,
                   out + u * num_targets);
    return 0;
}

/*
 * The boundary route's first hop for one source row: h[b] = min over a
 * of ds_row[a] + block[a * ld + b], numpy's sums. An inf ds entry is
 * skipped (it only ever sums to inf). The block's rows are ld apart, so
 * a block of a bigger row-major matrix is read in place.
 */
static void first_hop(const double *ds_row, const double *block, int64_t ld,
                      int64_t width_a, int64_t width_b, double *h)
{
    for (int64_t b = 0; b < width_b; b++)
        h[b] = INFINITY;
    for (int64_t a = 0; a < width_a; a++) {
        double x = ds_row[a];
        if (x == INFINITY)
            continue;
        const double *row = block + a * ld;
        for (int64_t b = 0; b < width_b; b++) {
            double c = x + row[b];
            h[b] = c < h[b] ? c : h[b];
        }
    }
}

/*
 * The min-plus combine of count pairs: out[p] = min over (a, b) of
 * (ds[si, a] + block[a, b]) + dt[ti, b], si = ds_inverse[p],
 * ti = dt_inverse[p]. The first hop runs at most once per ds row, when
 * a pair first names it, into that row of hop (hopped[si] set once it
 * holds it); a row no pair names, such as a fan row only ever used as
 * a target, is never hopped. The second hop runs once per pair: the
 * additions are numpy's, in its order, so the bits are too. Returns 0,
 * or DHL_BAD_ROWS at the first row map entry outside [0, ds_rows) /
 * [0, dt_rows) (read as unsigned, a negative entry is a huge one).
 */
static int min_plus_run(int64_t width_a, int64_t width_b, const double *ds,
                        int64_t ds_rows, const double *block, int64_t ld,
                        const double *dt, int64_t dt_rows, int64_t count,
                        const int64_t *ds_inverse, const int64_t *dt_inverse,
                        uint8_t *hopped, double *hop, double *out)
{
    for (int64_t p = 0; p < count; p++) {
        int64_t si = ds_inverse[p], ti = dt_inverse[p];
        if ((uint64_t)si >= (uint64_t)ds_rows ||
            (uint64_t)ti >= (uint64_t)dt_rows)
            return DHL_BAD_ROWS;
        double *h = hop + si * width_b;
        if (!hopped[si]) {
            first_hop(ds + si * width_a, block, ld, width_a, width_b, h);
            hopped[si] = 1;
        }
        out[p] = min_sum(h, dt + ti * width_b, width_b);
    }
    return 0;
}

/*
 * One shard's boundary (width local ids) and its own width x width
 * overlay block, rows ld apart (block 0 while none is held): what
 * dhl_shard_batch's boundary route reads.
 */
typedef struct {
    int64_t width, boundary, block, ld;
} shard_record_t;

/* v's row against the boundary: computed into rows at its first
 * mention, read back through row_of (1 + row; 0 until v has one). */
static inline int64_t take_row(const pair_store_t *q, int64_t v,
                               int64_t width, const int64_t *boundary,
                               int64_t *row_of, double *rows, int64_t *used)
{
    if (!row_of[v]) {
        matrix_row(q, v, width, boundary, rows + *used * width);
        row_of[v] = ++*used;
    }
    return row_of[v] - 1;
}

/*
 * One shard's share of a sharded batch, in one call.
 *
 * ids holds the sub-query's fan (fan_count ids), then its intra pairs'
 * sources and targets (count each). arena is the call's output:
 * final[count], then fan_inverse[fan_count] (int64), then the rows.
 *
 * final[p] is the pair answer of (s[p], t[p]) (dhl_gather_pairs). With
 * use_block and a held block it is lowered to the boundary route when
 * that is shorter: min over (a, b) of (ds[a] + block[a, b]) + dt[b], ds
 * and dt the rows of s[p] and t[p] against the boundary. Those are
 * min_plus_run's sums followed by np.minimum, so the bits are those of
 * the numpy composition in tests/oracles/query.py; a self-pair keeps
 * its 0.0.
 *
 * Each vertex's row against the boundary is computed once, at its first
 * mention, into rows; a row map over the n local ids stands in for
 * np.unique. The fan is read first, so its distinct vertices hold rows
 * 0 .. F - 1 in first-mention order, and fan_inverse[e] is fan[e]'s
 * row. The route's endpoints take rows after them. The first hop runs
 * once per distinct source row, as in min_plus_run, and never for a
 * target's row. Each distinct vertex takes one row, so the arena holds
 * capacity = min(n, fan_count + 2 * count) rows with a route,
 * min(n, fan_count) without.
 *
 * Returns F, DHL_NOMEM (final then holds the pair answers only), or
 * DHL_BAD_ID (nothing written) when an id lies outside [0, n).
 */
int64_t dhl_shard_batch(const labels_record_t *ls, const labels_record_t *lt,
                        const lca_record_t *l, const shard_record_t *b,
                        int use_block, int64_t count, int64_t fan_count,
                        const int64_t *ids, double *arena)
{
    const pair_store_t q = pair_open(ls, lt, l);
    const int64_t *fan = ids, *s = ids + fan_count, *t = s + count;
    const int64_t *boundary = BOUND(const int64_t, b->boundary);
    const double *block = BOUND(const double, b->block);
    int64_t n = ls->n, width = b->width;
    double *final = arena, *rows = arena + count + fan_count;
    int64_t *fan_inverse = (int64_t *)(arena + count);
    if (check_pairs(store_vertices(ls, lt, l), fan_count + 2 * count, ids, ids,
                    1))
        return DHL_BAD_ID;
    gather_pairs(&q, count, s, t, 1, final, NULL);
    int route = use_block && block != NULL && count > 0;
    if (!fan_count && !route)
        return 0;
    int64_t capacity = fan_count + (route ? 2 * count : 0);
    if (capacity > n)
        capacity = n;
    int64_t *row_of = calloc((size_t)n + 1, sizeof *row_of);
    uint8_t *hopped = NULL;
    double *hop = NULL;
    if (route) {
        hopped = calloc((size_t)capacity, sizeof *hopped);
        hop = malloc(((size_t)(capacity * width) + 1) * sizeof *hop);
    }
    int64_t fan_rows = DHL_NOMEM;
    if (row_of && (!route || (hopped && hop))) {
        int64_t used = 0;
        for (int64_t e = 0; e < fan_count; e++)
            fan_inverse[e] = take_row(&q, fan[e], width, boundary, row_of,
                                      rows, &used);
        fan_rows = used;
        for (int64_t p = 0; route && p < count; p++) {
            if (s[p] == t[p])
                continue;
            int64_t si = take_row(&q, s[p], width, boundary, row_of, rows,
                                  &used);
            int64_t ti = take_row(&q, t[p], width, boundary, row_of, rows,
                                  &used);
            double *h = hop + si * width;
            if (!hopped[si]) {
                first_hop(rows + si * width, block, b->ld, width, width, h);
                hopped[si] = 1;
            }
            double best = min_sum(h, rows + ti * width, width);
            final[p] = best < final[p] ? best : final[p];
        }
    }
    free(row_of);
    free(hopped);
    free(hop);
    return fan_rows;
}

/*
 * The sharded index's routing state: each vertex's region and
 * shard-local id, each shard's routed flag (an overlay and boundary
 * vertices), and the overlay matrix of the current overlay epoch
 * (total x total, its rows and columns region by region from
 * bounds[r]; matrix 0 without an overlay).
 */
typedef struct {
    int64_t n, k, total;
    int64_t region_of, local_of, routed, bounds, matrix; /* addresses */
} route_record_t;

/*
 * Group key of batch entry e (pair e % m; its source end for e < m, its
 * target end after): shard * width + (target region | k + source
 * region | 2k for an intra source | 2k + 1 for an intra target), width
 * = 2k + 2. A cross pair without a route goes to group k * width, past
 * every shard's.
 */
static inline int64_t split_key(int64_t k, const int64_t *routed, int64_t rs,
                                int64_t rt, int source)
{
    int64_t width = 2 * k + 2;
    if (rs == rt)
        return rs * width + 2 * k + (source ? 0 : 1);
    if (!routed[rs] || !routed[rt])
        return k * width;
    return source ? rs * width + rt : rt * width + k + rs;
}

/*
 * BatchSplit's cut of m pairs (ends s[p * stride], t[p * stride]) into
 * at most one sub-query per shard, as one stable counting sort of the
 * 2m entries by split_key. arena: order[2m] (the entries in key order,
 * batch order within a key), local[2m] (each ordered entry's
 * shard-local id), bounds[k * width + 2] (group g's entries are
 * order[bounds[g] .. bounds[g + 1])). The keys wait in local until the
 * sort has placed every entry, and the sort's cursors are the counts
 * pass's own bounds, shifted by one group, so the split needs no heap.
 * Returns the number of intra pairs, or DHL_BAD_ID when an id lies
 * outside [0, n).
 */
int64_t dhl_batch_split(const route_record_t *r, int64_t m, const int64_t *s,
                        const int64_t *t, int64_t stride, int64_t *arena)
{
    const int64_t *region_of = BOUND(const int64_t, r->region_of);
    const int64_t *local_of = BOUND(const int64_t, r->local_of);
    const int64_t *routed = BOUND(const int64_t, r->routed);
    const int64_t n = r->n, k = r->k, groups = k * (2 * k + 2) + 1;
    int64_t *order = arena, *local = arena + 2 * m, *bounds = arena + 4 * m;
    int64_t intra = 0;
    for (int64_t g = 0; g <= groups; g++)
        bounds[g] = 0;
    for (int64_t p = 0; p < m; p++) {
        int64_t sv = s[p * stride], tv = t[p * stride];
        if ((uint64_t)sv >= (uint64_t)n || (uint64_t)tv >= (uint64_t)n)
            return DHL_BAD_ID;
        int64_t rs = region_of[sv], rt = region_of[tv];
        int64_t source = split_key(k, routed, rs, rt, 1);
        int64_t target = split_key(k, routed, rs, rt, 0);
        intra += rs == rt;
        local[p] = source;
        local[m + p] = target;
        bounds[source + 1]++;
        bounds[target + 1]++;
    }
    /* bounds[g + 1] counts group g; make bounds[g] group g's start and
     * use bounds[g + 1] as its cursor, which ends at group g + 1's
     * start. */
    int64_t start = 0;
    for (int64_t g = 1; g <= groups; g++) {
        int64_t size = bounds[g];
        bounds[g] = start;
        start += size;
    }
    for (int64_t e = 0; e < 2 * m; e++)
        order[bounds[local[e] + 1]++] = e;
    for (int64_t i = 0; i < 2 * m; i++) {
        int64_t e = order[i];
        local[i] = local_of[e < m ? s[e * stride] : t[(e - m) * stride]];
    }
    return intra;
}

/* A shard's fan row map in the answers arena (results row res). */
static inline const int64_t *row_map(const double *answers, const int64_t *res)
{
    return (const int64_t *)(answers + res[4]);
}

/*
 * BatchSplit.answer: the batch's distances out[m] from the split arena
 * (dhl_batch_split's) and each shard's answer, all of them in one
 * operand arena, answers. results holds k rows of (answered, final,
 * rows, rows_count, fan_inverse): whether the shard answered, then the
 * offsets in answers of its intra finals, its fan rows (rows_count x
 * its boundary width) and its fan's row map (int64). Each shard's
 * finals land on its intra positions; every cross region pair (i, j)
 * whose two shards both answered takes the min-plus combine of shard
 * i's source rows, the overlay block (i, j) read in place from the
 * matrix, and shard j's target rows (min_plus_run's bits); what a
 * missing shard was needed for stays inf, and a self-pair is 0.0.
 * Returns 0, DHL_NOMEM, or DHL_BAD_ROWS - sid for a fan row map of
 * shard sid that points past its rows.
 */
int64_t dhl_batch_answer(const route_record_t *r, int64_t m, const int64_t *s,
                         const int64_t *t, int64_t stride,
                         const int64_t *split, const int64_t *results,
                         const double *answers, double *out)
{
    int64_t k = r->k, width = 2 * k + 2, total = r->total;
    const int64_t *order = split, *bounds = split + 4 * m;
    const int64_t *rb = BOUND(const int64_t, r->bounds);
    const double *matrix = BOUND(const double, r->matrix);
    for (int64_t p = 0; p < m; p++)
        out[p] = INFINITY;
    for (int64_t sid = 0; sid < k; sid++) {
        const int64_t *res = results + 5 * sid;
        const double *final = answers + res[1];
        int64_t lo = bounds[sid * width + 2 * k];
        int64_t mid = bounds[sid * width + 2 * k + 1];
        for (int64_t e = lo; res[0] && e < mid; e++)
            out[order[e]] = final[e - lo];
    }
    for (int64_t i = 0; i < k; i++) {
        for (int64_t j = 0; j < k; j++) {
            int64_t start = bounds[i * width + j];
            int64_t count = bounds[i * width + j + 1] - start;
            const int64_t *ri = results + 5 * i, *rj = results + 5 * j;
            if (i == j || !count || !ri[0] || !rj[0])
                continue;
            int64_t width_a = rb[i + 1] - rb[i], width_b = rb[j + 1] - rb[j];
            int64_t rows_i = ri[3];
            double *pick = malloc(((size_t)count + 1) * sizeof *pick);
            double *hop = malloc(((size_t)(rows_i * width_b) + 1) * sizeof *hop);
            uint8_t *hopped = calloc((size_t)rows_i + 1, 1);
            int status = DHL_NOMEM;
            if (pick && hop && hopped)
                status = min_plus_run(
                    width_a, width_b, answers + ri[2], rows_i,
                    matrix + rb[i] * total + rb[j], total, answers + rj[2],
                    rj[3], count,
                    row_map(answers, ri) + start - bounds[i * width],
                    row_map(answers, rj) + bounds[j * width + k + i]
                        - bounds[j * width],
                    hopped, hop, pick);
            for (int64_t e = 0; status == 0 && e < count; e++)
                out[order[start + e]] = pick[e];
            free(pick);
            free(hop);
            free(hopped);
            if (status == DHL_NOMEM)
                return DHL_NOMEM;
            if (status < 0) {
                /* which map: re-run the check on the source side */
                const int64_t *inv = row_map(answers, ri) + start
                    - bounds[i * width];
                for (int64_t e = 0; e < count; e++)
                    if ((uint64_t)inv[e] >= (uint64_t)rows_i)
                        return DHL_BAD_ROWS - i;
                return DHL_BAD_ROWS - j;
            }
        }
    }
    for (int64_t p = 0; p < m; p++)
        if (s[p * stride] == t[p * stride])
            out[p] = 0.0;
    return 0;
}

/* ------------------------------------------------------------------ */
/* the shortcut store                                                  */
/* ------------------------------------------------------------------ */

/*
 * A shortcut store (repro.hierarchy.csr): m slots over n vertices, its
 * ids and offsets int32, planes weight planes laid end to end in one
 * double buffer (cell = slot + m * plane). tau (int64) is the update
 * hierarchy's, 0 for a store without one; the label kernels are only
 * handed a store that has it, whose every slot points to an ancestor.
 */
typedef struct {
    int64_t n, m, planes;
    int64_t weights; /* addresses from here on */
    int64_t indptr, indices, ranks, owners;
    int64_t down_indptr, down_indices, down_slots;
    int64_t rank, tau;
} store_record_t;

typedef struct {
    int64_t n, m, cells;
    double *weights;
    const int32_t *indptr, *indices, *ranks, *owners;
    const int32_t *down_indptr, *down_indices, *down_slots, *rank;
    const int64_t *tau;
} store_t;

static store_t store_open(const store_record_t *r)
{
    store_t st = {r->n, r->m, r->m * r->planes,
                  BOUND(double, r->weights),
                  BOUND(const int32_t, r->indptr),
                  BOUND(const int32_t, r->indices),
                  BOUND(const int32_t, r->ranks),
                  BOUND(const int32_t, r->owners),
                  BOUND(const int32_t, r->down_indptr),
                  BOUND(const int32_t, r->down_indices),
                  BOUND(const int32_t, r->down_slots),
                  BOUND(const int32_t, r->rank),
                  BOUND(const int64_t, r->tau)};
    return st;
}

/* ------------------------------------------------------------------ */
/* the shortcut sweep (Algorithms 2 and 3)                             */
/* ------------------------------------------------------------------ */

/*
 * weights holds num_cells = m * planes cells, cell = slot + m * plane.
 * A triangle through owner v from cell (v, w, plane) reads its second
 * leg (v, o) from the opposite plane and lands on pair (w, o), a slot of
 * the deeper endpoint's row, in plane (rank[o] > rank[w]) xor plane.
 * With one plane every offset is zero.
 */

/*
 * Algorithms 2 and 3 from the raised (suspect) and lowered seed cells,
 * deepest owner first; pushes go strictly shallower than the popping
 * owner, so every cell pops once. Each pop of cell (v, w) first scatters
 * w's rows into two n-entry maps of slot + 1 (0: absent): its up row by
 * rank, its down row by vertex, cleared again before the next pop. A
 * popped suspect is recomputed as the min of direct[cell] and, over the
 * down-neighbours x of v that the vertex map holds (the common ones),
 * W[(x, v), opposite plane] + W[(x, w), own plane]; a lowered seed takes
 * min(W, direct). A cell that is not a suspect, or that moved, then
 * visits every triangle, an unmoved suspect only those whose leg moved,
 * each target slot one map load: a rise flags each unwritten target its
 * pre-batch weight realised, and a pair whose leg is not a queued
 * suspect relaxes a target that is not one. Returns 1, stopping early,
 * when a finite candidate targets a pair compaction removed (the
 * contract's fallback signal), 0 otherwise, DHL_NOMEM on failure. The
 * store is read through its bound record; the seeds, direct (one double
 * a cell) and the marks are the call's own.
 */
int dhl_shortcut_sweep(
    int64_t num_raised, const int64_t *raised,
    int64_t num_lowered, const int64_t *lowered,
    const store_record_t *record, const double *direct,
    uint8_t *changed, double *first_old, int64_t *touched, int64_t *count)
{
    const store_t st = store_open(record);
    const int64_t m = st.m, num_cells = st.cells;
    double *weights = st.weights;
    const int32_t *indptr = st.indptr, *indices = st.indices;
    const int32_t *ranks = st.ranks, *owners = st.owners, *rank = st.rank;
    const int32_t *down_indptr = st.down_indptr;
    const int32_t *down_indices = st.down_indices, *down_slots = st.down_slots;
    heap_t h;
    int status = heap_init(&h, num_cells, num_raised + num_lowered);
    /* slot + 1 fits: the store keeps m < 2**31 (check_capacity). */
    size_t universe = st.n > 0 ? (size_t)st.n : 1;
    int32_t *slot_by_rank = calloc(universe, sizeof(int32_t));
    int32_t *slot_by_vertex = calloc(universe, sizeof(int32_t));
    if (!slot_by_rank || !slot_by_vertex)
        status = DHL_NOMEM;
    int64_t last = num_cells - m; /* offset of the last plane */
    for (int64_t i = 0; !status && i < num_raised; i++)
        status = heap_flag(&h, rank[owners[raised[i] % m]], raised[i], SUSPECT);
    for (int64_t i = 0; !status && i < num_lowered; i++)
        status = heap_flag(&h, rank[owners[lowered[i] % m]], lowered[i], LOWERED);
    while (!status && h.size > 0) {
        uint8_t state = h.in_queue[h.items[0]];
        int suspect = state & SUSPECT;
        int64_t cell = heap_pop(&h);
        int64_t slot = cell % m, own = cell - slot, opposite = last - own;
        int64_t v = owners[slot], w = indices[slot], ra = ranks[slot];
        const int64_t up = indptr[w], up_end = indptr[w + 1];
        const int64_t down = down_indptr[w], down_end = down_indptr[w + 1];
        for (int64_t j = up; j < up_end; j++)
            slot_by_rank[ranks[j]] = (int32_t)(j + 1);
        for (int64_t d = down; d < down_end; d++)
            slot_by_vertex[down_indices[d]] = down_slots[d] + 1;
        double now = weights[cell], was = now;
        if (suspect) {
            if (changed[cell])
                was = first_old[cell];
            now = direct[cell];
            for (int64_t d = down_indptr[v], e = down_indptr[v + 1]; d < e; d++) {
                int64_t xw = slot_by_vertex[down_indices[d]];
                if (xw) {
                    double cand = weights[down_slots[d] + opposite]
                                + weights[xw - 1 + own];
                    if (cand < now)
                        now = cand;
                }
            }
        } else if ((state & LOWERED) && direct[cell] < now) {
            now = direct[cell];
        }
        if (now != weights[cell]) {
            mark_cell(cell, weights, changed, first_old, touched, count);
            weights[cell] = now;
        }
        int spreads = !suspect || now != was, rose = now > was;
        for (int64_t leg = indptr[v], end = indptr[v + 1]; leg < end; leg++) {
            int64_t partner = leg + opposite;
            if (leg == slot || (!spreads && !changed[partner]))
                continue;
            double cand = now + weights[partner];
            int64_t rb = ranks[leg], tslot, plane;
            if (ra < rb) {
                tslot = slot_by_rank[rb] - 1;
                plane = opposite;
            } else {
                tslot = slot_by_vertex[indices[leg]] - 1;
                plane = own;
            }
            if (tslot < 0) {
                /* The pair was inf when the store was compacted: an inf
                   candidate could never win, a finite one (only an
                   insertion-seeded sweep makes it) has no slot. */
                if (cand < INFINITY && !(h.in_queue[partner] & SUSPECT)) {
                    status = 1;
                    break;
                }
                continue;
            }
            int64_t target = tslot + plane;
            if (rose
                && weights[target] == was + (changed[partner] ? first_old[partner]
                                                              : weights[partner])
                && !changed[target]) {
                status = heap_flag(&h, rank[owners[tslot]], target, SUSPECT);
            } else if (weights[target] > cand
                       /* a queued suspect leg is not final: its pop relaxes */
                       && !(h.in_queue[partner] & SUSPECT)
                       && !(h.in_queue[target] & SUSPECT)) {
                mark_cell(target, weights, changed, first_old, touched, count);
                weights[target] = cand;
                status = heap_push(&h, rank[owners[tslot]], target);
            }
            if (status)
                break;
        }
        for (int64_t j = up; j < up_end; j++)
            slot_by_rank[ranks[j]] = 0;
        for (int64_t d = down; d < down_end; d++)
            slot_by_vertex[down_indices[d]] = 0;
    }
    free(slot_by_rank);
    free(slot_by_vertex);
    heap_free(&h);
    return status;
}

/* ------------------------------------------------------------------ */
/* the label sweep (Algorithms 4 and 5), one weight plane at a time    */
/* ------------------------------------------------------------------ */

/* Position p is flagged in a suspect map that may not exist. */
static inline int is_suspect(const uint8_t *suspect, int64_t p) {
    return suspect && suspect[p];
}

/* One past the deepest tau: the widest label, the column scratch size. */
static int64_t label_width(int64_t n, const int64_t *tau) {
    int64_t width = 1;
    for (int64_t v = 0; v < n; v++)
        if (tau[v] >= width)
            width = tau[v] + 1;
    return width;
}

/*
 * Algorithms 4 and 5 for the changed shortcut slots of the plane (slot
 * -> lo = owners[slot], hi = indices[slot]); slot_changed / slot_old
 * are the plane's shortcut marks, so a slot's pre-batch weight is
 * slot_old[slot] where slot_changed[slot]. Seeds only read: a raised
 * slot flags the entries L_lo[i] its old weight realised, w_old +
 * L_hi[i] == L_lo[i] (inf == inf included; only when w_old equals
 * L_lo[tau(hi)]), in a per-position byte map, and queues lo; a lowered
 * slot queues lo when its new weight undercuts L_lo[tau(hi)] (should
 * that entry rise instead, its flag queues lo). A heap of vertices keyed
 * by tau then pops each vertex once, after all its ancestors. At a pop,
 * each lowered up slot relaxes the non-suspect entries of the row from
 * its (final) row hi, unless the slot is no shorter than a non-suspect
 * L_lo[tau(hi)] (the triangle inequality then bounds every entry); the
 * suspect
 * columns are recomputed per Property 3.1, one pass per up shortcut
 * into ancestors at least that deep; the columns that rose flag each
 * unwritten down entry their old value realised through the slot's old
 * weight, and the columns that fell (relaxed or recomputed lower) relax
 * the non-suspect down entries. Lemma 6.3 keeps every ancestor column
 * independent, so handling them column by column inside one pass per
 * shortcut does the same additions and minima as one pop per entry.
 * The changed marks come in fresh: a row's marks at its pop are its
 * lowered entries. Everything the sweep allocates is had before its
 * first write, so DHL_NOMEM from the allocations means nothing was
 * written, marked or listed. The store (its plane-th weight plane) and
 * the labels are read through their bound records; the slots, the
 * shortcut marks and the entry marks are the call's own. Returns the
 * entries handled (each lowered or suspect entry once), DHL_NOMEM on
 * failure.
 */
int64_t dhl_label_sweep(
    int64_t num_slots, const int64_t *slots,
    const store_record_t *record, int64_t plane,
    const labels_record_t *labels,
    const uint8_t *slot_changed, const double *slot_old,
    uint8_t *changed, int64_t *touched, uint8_t *vertex_marks,
    int64_t *touched_vertices, int64_t *count)
{
    const store_t st = store_open(record);
    const int64_t n = st.n, capacity = labels->capacity;
    const double *weights = st.weights + st.m * plane;
    const int32_t *indptr = st.indptr, *indices = st.indices;
    const int32_t *owners = st.owners, *down_indptr = st.down_indptr;
    const int32_t *down_indices = st.down_indices, *down_slots = st.down_slots;
    const int64_t *tau = st.tau;
    double *values = BOUND(double, labels->values);
    const int64_t *offsets = BOUND(const int64_t, labels->offsets);
    heap_t h;
    int status = heap_init(&h, n, num_slots), raised = 0;
    for (int64_t s = 0; !status && s < num_slots; s++)
        raised |= weights[slots[s]] > slot_old[slots[s]];
    /* Suspects only descend from a raised slot: without one the sweep
       has no suspect map to fault in. */
    uint8_t *suspect = raised ? calloc(capacity > 0 ? (size_t)capacity : 1, 1) : NULL;
    int64_t width = status ? 0 : label_width(n, tau);
    /* suspect, lowered and risen columns; fresh and before values */
    int64_t *cols = malloc(3 * (size_t)width * sizeof(int64_t));
    double *fresh = malloc(2 * (size_t)width * sizeof(double));
    if (status || (raised && !suspect) || !cols || !fresh) {
        heap_free(&h);
        free(suspect);
        free(cols);
        free(fresh);
        return DHL_NOMEM;
    }
    int64_t *fell = cols + width, *risen = cols + 2 * width;
    double *before = fresh + width;
    for (int64_t s = 0; !status && s < num_slots; s++) {
        int64_t slot = slots[s], lo = owners[slot], hi = indices[slot];
        int64_t th = tau[hi], base = offsets[lo];
        double w = slot_old[slot];
        const double *row = values + base, *up = values + offsets[hi];
        if (weights[slot] > w) {
            if (w != row[th])
                continue;
            for (int64_t i = 0; i <= th; i++)
                if (w + up[i] == row[i])
                    suspect[base + i] = 1;
        } else if (!(weights[slot] < row[th])) {
            continue;
        }
        status = heap_push(&h, tau[lo], lo);
    }
    int64_t handled = 0;
    while (!status && h.size > 0) {
        int64_t v = heap_pop(&h), base = offsets[v];
        double *row = values + base;
        for (int64_t slot = indptr[v]; slot < indptr[v + 1]; slot++) {
            double w = weights[slot];
            int64_t th = tau[indices[slot]];
            if (!slot_changed[slot] || !(w < slot_old[slot])
                || (!is_suspect(suspect, base + th) && !(w < row[th])))
                continue;
            const double *up = values + offsets[indices[slot]];
            for (int64_t c = 0; c <= th; c++) {
                double cand = w + up[c];
                if (cand < row[c] && !is_suspect(suspect, base + c)) {
                    row[c] = cand;
                    mark_entry(base + c, v, changed, touched, vertex_marks,
                               touched_vertices, count);
                }
            }
        }
        int64_t k = 0, nf = 0, r = 0;
        for (int64_t c = 0; c <= tau[v]; c++) {
            if (is_suspect(suspect, base + c)) {
                cols[k] = c;
                fresh[k++] = INFINITY;
            } else if (changed[base + c]) {
                fell[nf++] = c;
            }
        }
        handled += k + nf;
        for (int64_t slot = indptr[v]; k && slot < indptr[v + 1]; slot++) {
            int64_t tw = tau[indices[slot]];
            double w = weights[slot];
            const double *up = values + offsets[indices[slot]];
            for (int64_t j = 0; j < k && cols[j] <= tw; j++) {
                double cand = w + up[cols[j]];
                if (cand < fresh[j])
                    fresh[j] = cand;
            }
        }
        for (int64_t j = 0; j < k; j++) {
            int64_t c = cols[j];
            if (fresh[j] > row[c]) {
                risen[r] = c;
                before[r++] = row[c];
            } else if (fresh[j] < row[c] || changed[base + c]) {
                fell[nf++] = c;
            }
            if (fresh[j] != row[c]) {
                mark_entry(base + c, v, changed, touched, vertex_marks,
                           touched_vertices, count);
                row[c] = fresh[j];
            }
        }
        for (int64_t d = down_indptr[v]; (nf || r) && d < down_indptr[v + 1]; d++) {
            int64_t u = down_indices[d], slot = down_slots[d], ubase = offsets[u];
            double w = weights[slot];
            double w_old = slot_changed[slot] ? slot_old[slot] : w;
            double *target = values + ubase;
            int push = 0;
            for (int64_t j = 0; j < nf; j++) {
                int64_t c = fell[j];
                double cand = w + row[c];
                if (cand < target[c] && !is_suspect(suspect, ubase + c)) {
                    target[c] = cand;
                    mark_entry(ubase + c, u, changed, touched, vertex_marks,
                               touched_vertices, count);
                    push = 1;
                }
            }
            for (int64_t j = 0; j < r; j++) {
                int64_t c = risen[j];
                if (w_old + before[j] == target[c] && !changed[ubase + c]) {
                    suspect[ubase + c] = 1;
                    push = 1;
                }
            }
            if (push && heap_push(&h, tau[u], u)) {
                status = DHL_NOMEM;
                break;
            }
        }
    }
    heap_free(&h);
    free(suspect);
    free(cols);
    free(fresh);
    return status ? status : handled;
}

/* ------------------------------------------------------------------ */
/* construction: the multilevel partitioner                            */
/* ------------------------------------------------------------------ */

/*
 * Every combinatorial step of repro.partition's multilevel bisection,
 * decision for decision with the Python oracles in tests/oracles/
 * (partition.py, multilevel.py, separator.py). A graph is CSR: row v
 * lists its neighbours (indices) with their cut multiplicities (mult,
 * integers held in doubles, so every sum is exact) in pair order;
 * vweight holds the vertex weights. The tie rules are part of the
 * decisions:
 *
 *   - FM's and greedy growing's queues pop by (key, push counter);
 *   - rebalance moves the overweight side's vertices by gain, ties in
 *     id order (Python's stable sort), components pack heaviest first,
 *     ties to the one found later (Python's reverse tuple sort);
 *   - a coarse row lists its neighbours in the order its members' rows
 *     first meet them;
 *   - Hopcroft-Karp's augmenting DFS tries a left vertex's edges in cut
 *     order, on an explicit stack in place of Python's recursion;
 *   - a candidate replaces the best one only on a strictly smaller cut.
 *
 * The random draws stay numpy's: the caller passes each level's
 * permutation and the growing and BFS seeds.
 */

typedef struct {
    int64_t n;
    const int64_t *indptr, *indices;
    const double *mult;
    const int64_t *vweight;
} csr_t;

/*
 * One gain-queue entry, ordered by (key, push counter). Counters are
 * distinct, so the order is total and any correct min-heap pops the
 * sequence heapq pops over the same pushes.
 */
typedef struct {
    double key;
    int64_t counter;
    int64_t vertex;
} fm_entry_t;

static inline int fm_less(const fm_entry_t *a, const fm_entry_t *b) {
    return a->key < b->key || (a->key == b->key && a->counter < b->counter);
}

static int fm_entry_cmp(const void *a, const void *b) {
    const fm_entry_t *x = a, *y = b;
    return fm_less(x, y) ? -1 : fm_less(y, x) ? 1 : 0;
}

static void fm_sift_down(fm_entry_t *heap, int64_t size, int64_t i) {
    fm_entry_t e = heap[i];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && fm_less(&heap[child + 1], &heap[child]))
            child++;
        if (!fm_less(&heap[child], &e))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = e;
}

static void fm_push(fm_entry_t *heap, int64_t *size, double key,
                    int64_t counter, int64_t vertex)
{
    fm_entry_t e = {key, counter, vertex};
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!fm_less(&e, &heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

static fm_entry_t fm_pop(fm_entry_t *heap, int64_t *size) {
    fm_entry_t top = heap[0];
    if (--*size > 0) {
        heap[0] = heap[*size];
        fm_sift_down(heap, *size, 0);
    }
    return top;
}

/* Cut reduction of moving v: external minus internal, in row order. */
static double fm_gain(const csr_t *g, const uint8_t *side, int64_t v) {
    double internal = 0.0, external = 0.0;
    for (int64_t e = g->indptr[v]; e < g->indptr[v + 1]; e++) {
        if (side[g->indices[e]] == side[v])
            internal += g->mult[e];
        else
            external += g->mult[e];
    }
    return external - internal;
}

/*
 * Scratch for a graph of up to n vertices and nnz pairs: a queue of
 * n + nnz + 1 entries (FM and growing push at most that many; rebalance
 * and packing sort at most n), two double and four int64 maps of n + 1,
 * and three byte maps.
 */
typedef struct {
    fm_entry_t *heap;
    double *gains, *queued;
    int64_t *moves, *ia, *ib, *ic;
    uint8_t *flags;
} scratch_t;

static void scratch_free(scratch_t *s) {
    free(s->heap);
    free(s->gains);
    free(s->queued);
    free(s->moves);
    free(s->ia);
    free(s->ib);
    free(s->ic);
    free(s->flags);
    memset(s, 0, sizeof *s);
}

/* Counts no allocation here could be sized for: every buffer holds at
 * most 13 eight-byte items per vertex plus 3 per pair (less than 128
 * bytes per item), so below this bound no size computation wraps. */
static int oversized(int64_t n, int64_t nnz) {
    return n < 0 || nnz < 0 || (uint64_t)n + (uint64_t)nnz >= SIZE_MAX / 128;
}

static int scratch_init(scratch_t *s, int64_t n, int64_t nnz) {
    memset(s, 0, sizeof *s);
    if (oversized(n, nnz))
        return DHL_NOMEM;
    size_t cells = (size_t)n + 1;
    s->heap = malloc(((size_t)n + (size_t)nnz + 1) * sizeof(fm_entry_t));
    s->gains = malloc(cells * sizeof(double));
    s->queued = malloc(cells * sizeof(double));
    s->moves = malloc(cells * sizeof(int64_t));
    s->ia = malloc(cells * sizeof(int64_t));
    s->ib = malloc(cells * sizeof(int64_t));
    s->ic = malloc(cells * sizeof(int64_t));
    s->flags = malloc(3 * cells);
    if (!s->heap || !s->gains || !s->queued || !s->moves || !s->ia
        || !s->ib || !s->ic || !s->flags) {
        scratch_free(s);
        return DHL_NOMEM;
    }
    return 0;
}

/*
 * Fiduccia-Mattheyses refinement of side (0/1 bytes, refined in place):
 * the FM_PASSES passes of tests/oracles/partition.py's fm_refine,
 * decision for decision. Gains
 * are summed in row order over integer multiplicities, so every sum is
 * exact and every 1e-12 test sees the same values. A pass stops when
 * its queue drains or when room, the cut the pass can still remove,
 * closes on the best prefix; it then rolls back to that prefix. work[0]
 * and work[1] grow by the queue pops and by n per pass that queued a
 * boundary. The heap of n + nnz entries is enough: a pass queues at
 * most n boundary vertices, each vertex moves at most once per pass and
 * queues at most its row, and a stale re-push replaces the entry just
 * popped.
 */
#define FM_PASSES 8

static void fm_run(const csr_t *g, int64_t max_side_weight, uint8_t *side,
                   int64_t *work, scratch_t *s)
{
    int64_t n = g->n;
    const int64_t *indptr = g->indptr, *indices = g->indices;
    const int64_t *vweight = g->vweight;
    const double *mult = g->mult;
    size_t cells = (size_t)n + 1;
    fm_entry_t *heap = s->heap;
    double *gains = s->gains, *queued = s->queued;
    int64_t *moves = s->moves;
    uint8_t *flags = s->flags;
    uint8_t *have_gain = flags, *locked = flags + cells;
    uint8_t *is_queued = flags + 2 * cells;
    int64_t side_weight[2] = {0, 0};
    for (int64_t v = 0; v < n; v++)
        side_weight[side[v]] += vweight[v];

    for (int64_t pass = 0; pass < FM_PASSES; pass++) {
        memset(flags, 0, 3 * cells);
        int64_t size = 0;
        double room = 0.0;
        for (int64_t v = 0; v < n; v++) {
            double internal = 0.0, external = 0.0;
            int on_boundary = 0;
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
                if (side[indices[e]] == side[v]) {
                    internal += mult[e];
                } else {
                    external += mult[e];
                    on_boundary = 1;
                }
            }
            if (on_boundary) {
                double gain = external - internal;
                gains[v] = gain;
                have_gain[v] = is_queued[v] = 1;
                queued[v] = -gain;
                heap[size] = (fm_entry_t){-gain, size, v};
                size++;
                room += external;
            }
        }
        if (size == 0)
            break; /* zero cut: nothing to refine */
        room /= 2.0;
        int64_t live = size, counter = size;
        for (int64_t i = size / 2 - 1; i >= 0; i--)
            fm_sift_down(heap, size, i);
        work[1] += n;

        int64_t num_moves = 0, best_prefix = 0;
        double cumulative = 0.0, best_value = 0.0;
        while (live > 0 && size > 0) {
            fm_entry_t top = fm_pop(heap, &size);
            work[0]++;
            int64_t v = top.vertex;
            if (!is_queued[v] || queued[v] != top.key)
                continue; /* superseded entry */
            is_queued[v] = 0;
            live--;
            double gain = gains[v];
            if (-top.key != gain) {
                /* stale: pushes refuse key increases; re-queue the true gain */
                queued[v] = -gain;
                is_queued[v] = 1;
                live++;
                fm_push(heap, &size, -gain, counter++, v);
                continue;
            }
            uint8_t sv = side[v], target = (uint8_t)(1 - sv);
            int64_t wv = vweight[v];
            if (side_weight[target] + wv > max_side_weight)
                continue; /* infeasible move; may be re-pushed later */
            locked[v] = 1;
            side[v] = target;
            side_weight[sv] -= wv;
            side_weight[target] += wv;
            cumulative += gain;
            moves[num_moves++] = v;
            if (cumulative > best_value + 1e-12) {
                best_value = cumulative;
                best_prefix = num_moves;
            }
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
                int64_t u = indices[e];
                double w = mult[e];
                if (locked[u]) {
                    if (side[u] == sv)
                        room -= w; /* (u, v) stays cut for the pass */
                    continue;
                }
                double gu;
                if (have_gain[u]) {
                    gu = gains[u] + (side[u] == sv ? 2.0 * w : -2.0 * w);
                } else {
                    gu = fm_gain(g, side, u);
                    have_gain[u] = 1;
                }
                gains[u] = gu;
                double key = -gu;
                if (!is_queued[u])
                    live++;
                else if (queued[u] <= key)
                    continue;
                queued[u] = key;
                is_queued[u] = 1;
                fm_push(heap, &size, key, counter++, u);
            }
            if (room <= best_value + 1e-12)
                break; /* no later prefix can beat the best one */
        }

        for (int64_t i = best_prefix; i < num_moves; i++) {
            int64_t v = moves[i];
            uint8_t sv = side[v];
            side[v] = (uint8_t)(1 - sv);
            side_weight[sv] -= vweight[v];
            side_weight[1 - sv] += vweight[v];
        }
        if (best_prefix == 0)
            break; /* no improvement: converged */
    }
}

/*
 * Rebalance (the oracle's rebalance): while a side outweighs the
 * bound, move its vertices across by gain, best first, ties in id
 * order. Gains are taken before the first move. buf holds n entries.
 */
static void rebalance_run(const csr_t *g, int64_t max_side_weight,
                          uint8_t *side, fm_entry_t *buf)
{
    int64_t side_weight[2] = {0, 0};
    for (int64_t v = 0; v < g->n; v++)
        side_weight[side[v]] += g->vweight[v];
    for (uint8_t heavy = 0; heavy < 2; heavy++) {
        if (side_weight[heavy] <= max_side_weight)
            continue;
        int64_t m = 0;
        for (int64_t v = 0; v < g->n; v++)
            if (side[v] == heavy)
                buf[m++] = (fm_entry_t){-fm_gain(g, side, v), v, v};
        qsort(buf, (size_t)m, sizeof *buf, fm_entry_cmp);
        for (int64_t i = 0; i < m && side_weight[heavy] > max_side_weight; i++) {
            int64_t v = buf[i].vertex;
            side[v] = (uint8_t)(1 - heavy);
            side_weight[heavy] -= g->vweight[v];
            side_weight[1 - heavy] += g->vweight[v];
        }
    }
}

/*
 * Greedy graph growing (the oracle's greedy_growing): side 0
 * grows from seed to half the total weight, the frontier popped by
 * (external minus internal cost, push counter). The queue holds at most
 * nnz + 1 entries: each absorbed vertex pushes at most its row.
 */
static void grow_run(const csr_t *g, int64_t total, int64_t seed,
                     uint8_t *side, fm_entry_t *heap)
{
    int64_t n = g->n;
    if (n == 0)
        return;
    double half = (double)total / 2.0;
    memset(side, 1, (size_t)n);
    int64_t grown = 0, size = 1, counter = 1;
    heap[0] = (fm_entry_t){0.0, 0, seed};
    while (size > 0 && (double)grown < half) {
        int64_t v = fm_pop(heap, &size).vertex;
        if (!side[v])
            continue;
        side[v] = 0;
        grown += g->vweight[v];
        for (int64_t e = g->indptr[v]; e < g->indptr[v + 1]; e++) {
            int64_t u = g->indices[e];
            if (!side[u])
                continue;
            double cost = 0.0;
            for (int64_t f = g->indptr[u]; f < g->indptr[u + 1]; f++)
                cost += side[g->indices[f]] ? g->mult[f] : -g->mult[f];
            fm_push(heap, &size, cost, counter++, u);
        }
    }
    if (grown == 0)
        side[seed] = 0;
}

/* BFS from start: hop distances (-1 where unreached) and visit order;
 * returns the number visited. */
static int64_t bfs_run(const csr_t *g, int64_t start, int64_t *dist,
                       int64_t *order)
{
    for (int64_t v = 0; v < g->n; v++)
        dist[v] = -1;
    dist[start] = 0;
    order[0] = start;
    int64_t count = 1;
    for (int64_t i = 0; i < count; i++) {
        int64_t v = order[i], hop = dist[v] + 1;
        for (int64_t e = g->indptr[v]; e < g->indptr[v + 1]; e++) {
            int64_t u = g->indices[e];
            if (dist[u] < 0) {
                dist[u] = hop;
                order[count++] = u;
            }
        }
    }
    return count;
}

/* Side 0 = the shortest prefix of order holding half the weight. */
static void prefix_half(const csr_t *g, int64_t total, const int64_t *order,
                        int64_t count, uint8_t *side)
{
    memset(side, 1, (size_t)g->n);
    double half = (double)total / 2.0;
    int64_t grown = 0;
    for (int64_t i = 0; i < count && (double)grown < half; i++) {
        side[order[i]] = 0;
        grown += g->vweight[order[i]];
    }
}

/*
 * BFS halves (the oracle's bfs_halves): two sweeps from seed
 * towards the periphery (the farthest vertex, ties to the largest id),
 * then the BFS order from there, unreached vertices after it in id
 * order, split at half the weight.
 */
static void bfs_halves_run(const csr_t *g, int64_t total, int64_t seed,
                           uint8_t *side, int64_t *dist, int64_t *order)
{
    int64_t n = g->n;
    if (n == 0)
        return;
    for (int sweep = 0; sweep < 2; sweep++) {
        bfs_run(g, seed, dist, order);
        seed = 0;
        for (int64_t v = 1; v < n; v++)
            if (dist[v] >= dist[seed])
                seed = v;
    }
    int64_t count = bfs_run(g, seed, dist, order);
    for (int64_t v = 0; v < n; v++)
        if (dist[v] < 0)
            order[count++] = v;
    prefix_half(g, total, order, count, side);
}

/*
 * Connected components (the oracle's components) in order of
 * their smallest vertex, members in BFS order: component c is
 * members[starts[c]:starts[c + 1]] and weighs weights[c]. starts holds
 * n + 1 entries, seen n bytes. Returns the number of components.
 */
static int64_t components_run(const csr_t *g, int64_t *members,
                              int64_t *starts, int64_t *weights,
                              uint8_t *seen)
{
    for (int64_t v = 0; v < g->n; v++)
        seen[v] = 0;
    int64_t num = 0, count = 0;
    for (int64_t start = 0; start < g->n; start++) {
        if (seen[start])
            continue;
        seen[start] = 1;
        starts[num] = count;
        members[count++] = start;
        int64_t weight = g->vweight[start];
        for (int64_t i = starts[num]; i < count; i++) {
            int64_t v = members[i];
            for (int64_t e = g->indptr[v]; e < g->indptr[v + 1]; e++) {
                int64_t u = g->indices[e];
                if (!seen[u]) {
                    seen[u] = 1;
                    members[count++] = u;
                    weight += g->vweight[u];
                }
            }
        }
        weights[num++] = weight;
    }
    starts[num] = count;
    return num;
}

/*
 * Place whole components (all but skip) on the lighter side, heaviest
 * first; of equal weights the one found later goes first, as Python's
 * reverse sort of (weight, members) tuples has it. buf holds num
 * entries.
 */
static void pack_run(int64_t num, const int64_t *members,
                     const int64_t *starts, const int64_t *weights,
                     int64_t skip, uint8_t *side, int64_t side_weight[2],
                     fm_entry_t *buf)
{
    int64_t m = 0;
    for (int64_t c = 0; c < num; c++)
        if (c != skip)
            buf[m++] = (fm_entry_t){-(double)weights[c], -c, c};
    qsort(buf, (size_t)m, sizeof *buf, fm_entry_cmp);
    for (int64_t i = 0; i < m; i++) {
        int64_t c = buf[i].vertex;
        int target = side_weight[0] <= side_weight[1] ? 0 : 1;
        side_weight[target] += weights[c];
        if (target)
            for (int64_t j = starts[c]; j < starts[c + 1]; j++)
                side[members[j]] = 1;
    }
}

/* Total multiplicity of the edges crossing side, in row order. */
static double cut_weight_run(const csr_t *g, const uint8_t *side) {
    double total = 0.0;
    for (int64_t v = 0; v < g->n; v++)
        for (int64_t e = g->indptr[v]; e < g->indptr[v + 1]; e++) {
            int64_t u = g->indices[e];
            if (v < u && side[u] != side[v])
                total += g->mult[e];
        }
    return total;
}

/*
 * One heavy-edge matching level (the oracle's coarsen_once):
 * vertices visited in perm order pair with their unmatched neighbour of
 * heaviest multiplicity (ties: the lighter one, then the first in the
 * row) unless the pair would outweigh max_vertex_weight. Coarse ids
 * follow each cluster's smaller member; a coarse row lists what its
 * members' rows meet, in first-meeting order, multiplicities summed in
 * that order. Writes fine_to_coarse and the coarse CSR (at most n
 * vertices and the fine pair count); returns the coarse vertex count.
 * match, pos and first hold n entries each.
 */
static int64_t coarsen_run(const csr_t *g, const int64_t *perm,
                           int64_t max_vertex_weight, int64_t *f2c,
                           int64_t *c_indptr, int64_t *c_indices,
                           double *c_mult, int64_t *c_vweight,
                           int64_t *match, int64_t *pos, int64_t *first)
{
    int64_t n = g->n;
    const int64_t *indptr = g->indptr, *indices = g->indices;
    const int64_t *vweight = g->vweight;
    for (int64_t v = 0; v < n; v++)
        match[v] = -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t v = perm[i];
        if (match[v] != -1)
            continue;
        int64_t best = v, best_light = 0, room = max_vertex_weight - vweight[v];
        double best_w = -1.0;
        for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
            int64_t u = indices[e];
            double w = g->mult[e];
            if (match[u] != -1 || u == v || vweight[u] > room)
                continue;
            if (w > best_w || (w == best_w && -vweight[u] > best_light)) {
                best_w = w;
                best_light = -vweight[u];
                best = u;
            }
        }
        match[v] = best;
        match[best] = v;
    }

    int64_t nc = 0;
    for (int64_t v = 0; v < n; v++)
        f2c[v] = -1;
    for (int64_t v = 0; v < n; v++)
        if (f2c[v] == -1) {
            f2c[v] = f2c[match[v]] = nc;
            first[nc++] = v;
        }

    int64_t nnz = 0;
    c_indptr[0] = 0;
    for (int64_t cv = 0; cv < nc; cv++)
        pos[cv] = -1;
    for (int64_t cv = 0; cv < nc; cv++) {
        int64_t start = nnz, v = first[cv], partner = match[v];
        c_vweight[cv] = vweight[v] + (partner != v ? vweight[partner] : 0);
        for (int k = 0; k < 2; k++) {
            int64_t x = k ? partner : v;
            if (k && partner == v)
                break;
            for (int64_t e = indptr[x]; e < indptr[x + 1]; e++) {
                int64_t cu = f2c[indices[e]];
                if (cu == cv)
                    continue;
                if (pos[cu] < start) {
                    pos[cu] = nnz;
                    c_indices[nnz] = cu;
                    c_mult[nnz++] = 0.0 + g->mult[e];
                } else {
                    c_mult[pos[cu]] += g->mult[e];
                }
            }
        }
        c_indptr[cv + 1] = nnz;
    }
    return nc;
}

/*
 * Minimum vertex cover of the cut edges (a[i] on side 0, b[i] on side
 * 1, ids in [0, n)), as tests/oracles/separator.py builds it: left and
 * right classes in id order, each left vertex's edges in cut order
 * without repeats, a Hopcroft-Karp maximum matching, then Koenig's
 * construction from the unmatched left vertices. Marks the cover in
 * in_sep (n bytes) and returns its size, or DHL_NOMEM.
 */
static int64_t separator_run(int64_t n, int64_t m, const int64_t *a,
                             const int64_t *b, uint8_t *in_sep)
{
    if (oversized(n, m))
        return DHL_NOMEM;
    memset(in_sep, 0, (size_t)n);
    if (m == 0)
        return 0;
    size_t cells = (size_t)n + 1;
    int64_t *block = malloc((12 * cells + (size_t)m) * sizeof(int64_t));
    uint8_t *visited = malloc(2 * cells);
    if (!block || !visited) {
        free(block);
        free(visited);
        return DHL_NOMEM;
    }
    int64_t *lidx = block, *ridx = lidx + cells, *left = ridx + cells;
    int64_t *right = left + cells, *adj_ptr = right + cells;
    int64_t *cursor = adj_ptr + cells, *match_left = cursor + cells;
    int64_t *match_right = match_left + cells, *dist = match_right + cells;
    int64_t *queue = dist + cells, *stack_node = queue + cells;
    int64_t *stack_it = stack_node + cells, *adj = stack_it + cells;
    uint8_t *visited_left = visited, *visited_right = visited + cells;
    const int64_t inf = INT64_MAX;

    for (int64_t v = 0; v < n; v++)
        lidx[v] = ridx[v] = -1;
    for (int64_t i = 0; i < m; i++) {
        lidx[a[i]] = -2;
        ridx[b[i]] = -2;
    }
    int64_t num_left = 0, num_right = 0;
    for (int64_t v = 0; v < n; v++) {
        if (lidx[v] == -2) {
            left[num_left] = v;
            lidx[v] = num_left++;
        }
        if (ridx[v] == -2) {
            right[num_right] = v;
            ridx[v] = num_right++;
        }
    }
    /* edges grouped by left vertex, cut order kept, repeats dropped */
    for (int64_t l = 0; l <= num_left; l++)
        adj_ptr[l] = 0;
    for (int64_t i = 0; i < m; i++)
        adj_ptr[lidx[a[i]] + 1]++;
    for (int64_t l = 0; l < num_left; l++) {
        adj_ptr[l + 1] += adj_ptr[l];
        cursor[l] = adj_ptr[l];
    }
    for (int64_t i = 0; i < m; i++)
        adj[cursor[lidx[a[i]]]++] = ridx[b[i]];
    for (int64_t r = 0; r < num_right; r++)
        cursor[r] = -1; /* now: the left vertex that last listed r */
    int64_t kept = 0, old_start = 0;
    for (int64_t l = 0; l < num_left; l++) {
        int64_t old_end = adj_ptr[l + 1];
        adj_ptr[l] = kept;
        for (int64_t j = old_start; j < old_end; j++) {
            int64_t r = adj[j];
            if (cursor[r] != l) {
                cursor[r] = l;
                adj[kept++] = r;
            }
        }
        old_start = old_end;
    }
    adj_ptr[num_left] = kept;

    for (int64_t l = 0; l < num_left; l++)
        match_left[l] = -1;
    for (int64_t r = 0; r < num_right; r++)
        match_right[r] = -1;
    for (;;) {
        /* BFS layers from the free left vertices */
        int64_t head = 0, tail = 0;
        int found = 0;
        for (int64_t l = 0; l < num_left; l++) {
            if (match_left[l] == -1) {
                dist[l] = 0;
                queue[tail++] = l;
            } else {
                dist[l] = inf;
            }
        }
        while (head < tail) {
            int64_t l = queue[head++];
            for (int64_t j = adj_ptr[l]; j < adj_ptr[l + 1]; j++) {
                int64_t next = match_right[adj[j]];
                if (next == -1) {
                    found = 1;
                } else if (dist[next] == inf) {
                    dist[next] = dist[l] + 1;
                    queue[tail++] = next;
                }
            }
        }
        if (!found)
            break;
        /* one augmenting DFS per free left vertex, in id order */
        for (int64_t root = 0; root < num_left; root++) {
            if (match_left[root] != -1)
                continue;
            int64_t top = 0;
            stack_node[0] = root;
            stack_it[0] = adj_ptr[root];
            for (;;) {
                int64_t l = stack_node[top];
                if (stack_it[top] == adj_ptr[l + 1]) {
                    dist[l] = inf; /* every edge failed */
                    if (top == 0)
                        break;
                    stack_it[--top]++;
                    continue;
                }
                int64_t r = adj[stack_it[top]], next = match_right[r];
                if (next == -1) {
                    for (int64_t d = top; d >= 0; d--) {
                        int64_t ld = stack_node[d], rd = adj[stack_it[d]];
                        match_left[ld] = rd;
                        match_right[rd] = ld;
                    }
                    break;
                }
                if (dist[l] != inf && dist[next] == dist[l] + 1) {
                    stack_node[++top] = next;
                    stack_it[top] = adj_ptr[next];
                } else {
                    stack_it[top]++;
                }
            }
        }
    }

    /* Koenig: alternating BFS from the unmatched left vertices */
    memset(visited, 0, 2 * cells);
    int64_t head = 0, tail = 0;
    for (int64_t l = 0; l < num_left; l++)
        if (match_left[l] == -1) {
            visited_left[l] = 1;
            queue[tail++] = l;
        }
    while (head < tail) {
        int64_t l = queue[head++];
        for (int64_t j = adj_ptr[l]; j < adj_ptr[l + 1]; j++) {
            int64_t r = adj[j];
            if (!visited_right[r] && match_left[l] != r) {
                visited_right[r] = 1;
                int64_t next = match_right[r];
                if (next != -1 && !visited_left[next]) {
                    visited_left[next] = 1;
                    queue[tail++] = next;
                }
            }
        }
    }
    int64_t size = 0;
    for (int64_t l = 0; l < num_left; l++)
        if (!visited_left[l] && !in_sep[left[l]]) {
            in_sep[left[l]] = 1;
            size++;
        }
    for (int64_t r = 0; r < num_right; r++)
        if (visited_right[r] && !in_sep[right[r]]) {
            in_sep[right[r]] = 1;
            size++;
        }
    free(block);
    free(visited);
    return size;
}

/* ------------------------------------------------------------------ */
/* the partitioner's context: one bisection after another              */
/* ------------------------------------------------------------------ */

/*
 * A context over one source graph (borrowed: the caller keeps its
 * arrays alive and unchanged for the context's life) runs
 * repro.partition.multilevel.multilevel_bisection on one vertex subset
 * at a time, every graph of it in its own memory, none in Python:
 *
 *   dhl_part_load         the induced subgraph of the subset, in subset
 *                         order, and its components; returns their count
 *   dhl_part_disconnected more than one: pack the components (returns
 *                         1, done) or make the giant one the working
 *                         graph (returns 0)
 *   dhl_part_coarsen      one heavy-edge level from the caller's
 *                         permutation; 0 when it shrank by less than
 *                         min_shrink (the level is dropped)
 *   dhl_part_initial      the growing trials from the caller's seeds
 *                         (a repeated seed is skipped) and BFS halves,
 *                         each rebalanced, refined once per distinct side
 *                         and cut-weighed; cut[0] = the best cut
 *   dhl_part_coarsest     copy the coarsest graph out (the caller's
 *                         spectral candidate needs its Laplacian)
 *   dhl_part_consider     one more candidate side on the coarsest graph
 *   dhl_part_project      back up the levels, rebalance + FM at each,
 *                         the final rebalance (and the giant's crumbs),
 *                         then the cut: cut[0] its weight
 *   dhl_part_result       copy the side and the cut edges out
 *   dhl_part_split        the minimum vertex separator of the cut and
 *                         the two sides without it, as source ids
 *
 * info[] describes the working level after each call (vertices, pairs,
 * total weight) and the result's counts; work[] adds up FM's queue
 * pops and pass-vertices (fm_run's work). Everything is allocated by
 * dhl_part_new, sized to the source graph, except the coarse levels and
 * the giant's graph (allocated per bisection, freed by the next load).
 */

enum {
    INFO_N, INFO_NNZ, INFO_TOTAL, INFO_CUT_EDGES,
    INFO_SEPARATOR, INFO_LEFT, INFO_RIGHT
};

#define MAX_CANDIDATES 8

typedef struct {
    int64_t n, nnz, total;
    int64_t *indptr, *indices, *vweight;
    double *mult;
    /* a coarse level's fine-to-coarse map, or the giant's member ids */
    int64_t *map;
} level_t;

typedef struct {
    csr_t source;
    double beta;
    int64_t *out, *info, *work;
    double *cut;
    int64_t *local_of, *subset, loaded;
    level_t *levels;
    int64_t num_levels, cap_levels, base;
    int64_t num_comps, giant, *members, *starts, *weights;
    uint8_t *side, *best, *cand, *memo;
    int64_t num_memo;
    double best_cut;
    int64_t *cut_a, *cut_b, num_cut;
    scratch_t s;
} part_t;

static csr_t level_csr(const level_t *l) {
    csr_t g = {l->n, l->indptr, l->indices, l->mult, l->vweight};
    return g;
}

static void level_free(level_t *l) {
    free(l->indptr);
    free(l->indices);
    free(l->vweight);
    free(l->mult);
    free(l->map);
    memset(l, 0, sizeof *l);
}

static int level_alloc(level_t *l, int64_t n, int64_t nnz) {
    memset(l, 0, sizeof *l);
    if (oversized(n, nnz))
        return DHL_NOMEM;
    size_t cells = (size_t)n + 1, pairs = (size_t)nnz + 1;
    l->indptr = malloc(cells * sizeof(int64_t));
    l->indices = malloc(pairs * sizeof(int64_t));
    l->vweight = malloc(cells * sizeof(int64_t));
    l->mult = malloc(pairs * sizeof(double));
    l->map = malloc(cells * sizeof(int64_t));
    if (!l->indptr || !l->indices || !l->vweight || !l->mult || !l->map) {
        level_free(l);
        return DHL_NOMEM;
    }
    return 0;
}

/* (1 - beta) of the total, never below half of it (rounded up). */
static int64_t max_side_weight(double beta, int64_t total) {
    int64_t bound = (int64_t)floor((1.0 - beta) * (double)total);
    int64_t half = (total + 1) / 2;
    return bound > half ? bound : half;
}

static level_t *top_level(part_t *p) {
    return &p->levels[p->num_levels - 1];
}

static void describe(part_t *p) {
    level_t *l = top_level(p);
    p->info[INFO_N] = l->n;
    p->info[INFO_NNZ] = l->nnz;
    p->info[INFO_TOTAL] = l->total;
}

static int push_level(part_t *p) {
    if (p->num_levels == p->cap_levels) {
        int64_t cap = 2 * p->cap_levels;
        level_t *levels = realloc(p->levels, (size_t)cap * sizeof(level_t));
        if (!levels)
            return DHL_NOMEM;
        p->levels = levels;
        p->cap_levels = cap;
    }
    p->num_levels++;
    return 0;
}

void dhl_part_free(part_t *p) {
    if (!p)
        return;
    if (p->levels)
        for (int64_t k = 0; k < p->num_levels; k++)
            level_free(&p->levels[k]);
    free(p->levels);
    free(p->local_of);
    free(p->subset);
    free(p->members);
    free(p->starts);
    free(p->weights);
    free(p->side);
    free(p->best);
    free(p->cand);
    free(p->memo);
    free(p->cut_a);
    free(p->cut_b);
    scratch_free(&p->s);
    free(p);
}

part_t *dhl_part_new(
    int64_t n, int64_t nnz, const int64_t *indptr, const int64_t *indices,
    const double *mult, const int64_t *vweight, double beta, int64_t *out,
    int64_t *info, double *cut, int64_t *work)
{
    if (oversized(n, nnz))
        return NULL;
    part_t *p = calloc(1, sizeof *p);
    if (!p)
        return NULL;
    p->source = (csr_t){n, indptr, indices, mult, vweight};
    p->beta = beta;
    p->out = out;
    p->info = info;
    p->cut = cut;
    p->work = work;
    size_t cells = (size_t)n + 1, pairs = (size_t)nnz + 1;
    p->local_of = malloc(cells * sizeof(int64_t));
    p->subset = malloc(cells * sizeof(int64_t));
    p->members = malloc(cells * sizeof(int64_t));
    p->starts = malloc((cells + 1) * sizeof(int64_t));
    /* zeroed: whatever a call reads before a load is a valid side */
    p->weights = calloc(cells, sizeof(int64_t));
    p->side = calloc(cells, 1);
    p->best = calloc(cells, 1);
    p->cand = calloc(cells, 1);
    p->memo = malloc(MAX_CANDIDATES * cells);
    p->cut_a = malloc(pairs * sizeof(int64_t));
    p->cut_b = malloc(pairs * sizeof(int64_t));
    p->cap_levels = 8;
    p->levels = calloc((size_t)p->cap_levels, sizeof(level_t));
    if (!p->local_of || !p->subset || !p->members || !p->starts
        || !p->weights || !p->side || !p->best || !p->cand || !p->memo
        || !p->cut_a || !p->cut_b || !p->levels
        || scratch_init(&p->s, n, nnz)
        || level_alloc(&p->levels[0], n, nnz)) {
        dhl_part_free(p);
        return NULL;
    }
    p->num_levels = 1;
    for (int64_t v = 0; v < n; v++)
        p->local_of[v] = -1;
    return p;
}

int64_t dhl_part_load(part_t *p, int64_t count, const int64_t *subset) {
    for (int64_t i = 0; i < p->loaded; i++)
        p->local_of[p->subset[i]] = -1;
    for (int64_t k = 1; k < p->num_levels; k++)
        level_free(&p->levels[k]);
    p->num_levels = 1;
    p->base = 0;
    p->loaded = count;
    memcpy(p->subset, subset, (size_t)count * sizeof(int64_t));
    for (int64_t i = 0; i < count; i++)
        p->local_of[subset[i]] = i;

    const csr_t *src = &p->source;
    level_t *l = &p->levels[0];
    int64_t nnz = 0, total = 0;
    l->indptr[0] = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t v = subset[i];
        for (int64_t e = src->indptr[v]; e < src->indptr[v + 1]; e++) {
            int64_t u = p->local_of[src->indices[e]];
            if (u >= 0) {
                l->indices[nnz] = u;
                l->mult[nnz++] = src->mult[e];
            }
        }
        l->indptr[i + 1] = nnz;
        l->vweight[i] = src->vweight[v];
        total += src->vweight[v];
    }
    l->n = count;
    l->nnz = nnz;
    l->total = total;
    csr_t g = level_csr(l);
    p->num_comps = components_run(&g, p->members, p->starts, p->weights,
                                  p->s.flags);
    describe(p);
    return p->num_comps;
}

/* The cut of the source-level side: weight and (side 0, side 1) edges. */
static void finish(part_t *p) {
    level_t *root = &p->levels[0];
    const uint8_t *side = p->side;
    double weight = 0.0;
    int64_t m = 0;
    for (int64_t v = 0; v < root->n; v++)
        for (int64_t e = root->indptr[v]; e < root->indptr[v + 1]; e++) {
            int64_t u = root->indices[e];
            if (v < u && side[u] != side[v]) {
                weight += root->mult[e];
                p->cut_a[m] = side[v] ? u : v;
                p->cut_b[m++] = side[v] ? v : u;
            }
        }
    p->num_cut = m;
    p->cut[0] = weight;
    p->info[INFO_CUT_EDGES] = m;
}

int64_t dhl_part_disconnected(part_t *p) {
    level_t *root = &p->levels[0];
    csr_t g = level_csr(root);
    int64_t bound = max_side_weight(p->beta, root->total), giant = 0;
    for (int64_t c = 1; c < p->num_comps; c++)
        if (p->weights[c] > p->weights[giant])
            giant = c;
    p->giant = giant;
    if (p->weights[giant] <= bound) {
        int64_t side_weight[2] = {0, 0};
        memset(p->side, 0, (size_t)root->n);
        pack_run(p->num_comps, p->members, p->starts, p->weights, -1,
                 p->side, side_weight, p->s.heap);
        rebalance_run(&g, bound, p->side, p->s.heap);
        fm_run(&g, bound, p->side, p->work, &p->s);
        finish(p);
        return 1;
    }
    /* the giant alone, its members in BFS order, is the working graph */
    const int64_t *members = p->members + p->starts[giant];
    int64_t n = p->starts[giant + 1] - p->starts[giant], nnz = 0;
    int64_t *local = p->s.ia;
    for (int64_t j = 0; j < n; j++) {
        local[members[j]] = j;
        nnz += root->indptr[members[j] + 1] - root->indptr[members[j]];
    }
    if (push_level(p))
        return DHL_NOMEM;
    root = &p->levels[0];
    level_t *sub = top_level(p);
    if (level_alloc(sub, n, nnz)) {
        p->num_levels--;
        return DHL_NOMEM;
    }
    int64_t k = 0;
    sub->indptr[0] = 0;
    for (int64_t j = 0; j < n; j++) {
        int64_t v = members[j];
        for (int64_t e = root->indptr[v]; e < root->indptr[v + 1]; e++) {
            sub->indices[k] = local[root->indices[e]];
            sub->mult[k++] = root->mult[e];
        }
        sub->indptr[j + 1] = k;
        sub->vweight[j] = root->vweight[v];
        sub->map[j] = v;
    }
    sub->n = n;
    sub->nnz = nnz;
    sub->total = p->weights[giant];
    p->base = 1;
    describe(p);
    return 0;
}

int64_t dhl_part_coarsen(part_t *p, const int64_t *perm,
                         int64_t max_vertex_weight, double min_shrink)
{
    if (push_level(p))
        return DHL_NOMEM;
    level_t *fine = &p->levels[p->num_levels - 2];
    level_t *coarse = top_level(p);
    if (level_alloc(coarse, fine->n, fine->nnz)) {
        p->num_levels--;
        return DHL_NOMEM;
    }
    csr_t g = level_csr(fine);
    int64_t nc = coarsen_run(&g, perm, max_vertex_weight, coarse->map,
                             coarse->indptr, coarse->indices, coarse->mult,
                             coarse->vweight, p->s.ia, p->s.ib, p->s.ic);
    if ((double)nc >= (double)fine->n * min_shrink) {
        level_free(coarse); /* matching stalled */
        p->num_levels--;
        return 0;
    }
    coarse->n = nc;
    coarse->nnz = coarse->indptr[nc];
    coarse->total = fine->total;
    describe(p);
    return nc;
}

/* Rebalance cand; unless an equal side was refined already, refine it
 * and keep it if it cuts strictly less than the best so far. */
static void consider(part_t *p) {
    level_t *top = top_level(p);
    csr_t g = level_csr(top);
    size_t n = (size_t)top->n;
    int64_t bound = max_side_weight(p->beta, top->total);
    rebalance_run(&g, bound, p->cand, p->s.heap);
    for (int64_t k = 0; k < p->num_memo; k++)
        if (!memcmp(p->memo + (size_t)k * n, p->cand, n))
            return;
    if (p->num_memo < MAX_CANDIDATES)
        memcpy(p->memo + (size_t)p->num_memo++ * n, p->cand, n);
    fm_run(&g, bound, p->cand, p->work, &p->s);
    double cut = cut_weight_run(&g, p->cand);
    if (cut < p->best_cut) {
        p->best_cut = cut;
        memcpy(p->best, p->cand, n);
    }
}

void dhl_part_initial(part_t *p, const int64_t *seeds, int64_t trials) {
    level_t *top = top_level(p);
    csr_t g = level_csr(top);
    p->best_cut = INFINITY;
    p->num_memo = 0;
    for (int64_t t = 0; t < trials; t++) {
        int repeat = 0;
        for (int64_t k = 0; k < t; k++)
            repeat |= seeds[k] == seeds[t];
        if (repeat)
            continue;
        grow_run(&g, top->total, seeds[t], p->cand, p->s.heap);
        consider(p);
    }
    bfs_halves_run(&g, top->total, seeds[trials], p->cand, p->s.ia, p->s.ib);
    consider(p);
    p->cut[0] = p->best_cut;
}

void dhl_part_coarsest(part_t *p, int64_t *indptr, int64_t *indices,
                       double *mult, int64_t *vweight)
{
    level_t *top = top_level(p);
    memcpy(indptr, top->indptr, (size_t)(top->n + 1) * sizeof(int64_t));
    memcpy(indices, top->indices, (size_t)top->nnz * sizeof(int64_t));
    memcpy(mult, top->mult, (size_t)top->nnz * sizeof(double));
    memcpy(vweight, top->vweight, (size_t)top->n * sizeof(int64_t));
}

void dhl_part_consider(part_t *p, const uint8_t *side) {
    memcpy(p->cand, side, (size_t)top_level(p)->n);
    consider(p);
    p->cut[0] = p->best_cut;
}

void dhl_part_project(part_t *p) {
    level_t *work = &p->levels[p->base];
    int64_t bound = max_side_weight(p->beta, work->total);
    uint8_t *side = p->best;
    for (int64_t k = p->num_levels - 1; k > p->base; k--) {
        level_t *fine = &p->levels[k - 1];
        const int64_t *f2c = p->levels[k].map;
        uint8_t *next = side == p->best ? p->cand : p->best;
        for (int64_t v = 0; v < fine->n; v++)
            next[v] = side[f2c[v]];
        csr_t g = level_csr(fine);
        rebalance_run(&g, bound, next, p->s.heap);
        fm_run(&g, bound, next, p->work, &p->s);
        side = next;
    }
    csr_t g = level_csr(work);
    rebalance_run(&g, bound, side, p->s.heap);
    level_t *root = &p->levels[0];
    if (p->base == 0) {
        memcpy(p->side, side, (size_t)root->n);
    } else {
        /* the giant's sides, then the crumbs packed around them */
        int64_t side_weight[2] = {0, 0};
        memset(p->side, 0, (size_t)root->n);
        for (int64_t j = 0; j < work->n; j++) {
            int64_t v = work->map[j];
            p->side[v] = side[j];
            side_weight[side[j]] += root->vweight[v];
        }
        pack_run(p->num_comps, p->members, p->starts, p->weights, p->giant,
                 p->side, side_weight, p->s.heap);
        csr_t r = level_csr(root);
        rebalance_run(&r, max_side_weight(p->beta, root->total), p->side,
                      p->s.heap);
    }
    finish(p);
}

void dhl_part_result(part_t *p, uint8_t *side, int64_t *a, int64_t *b) {
    memcpy(side, p->side, (size_t)p->levels[0].n);
    memcpy(a, p->cut_a, (size_t)p->num_cut * sizeof(int64_t));
    memcpy(b, p->cut_b, (size_t)p->num_cut * sizeof(int64_t));
}

int64_t dhl_part_split(part_t *p) {
    int64_t n = p->levels[0].n;
    uint8_t *in_sep = p->cand;
    int64_t size = separator_run(n, p->num_cut, p->cut_a, p->cut_b, in_sep);
    if (size < 0)
        return size;
    int64_t *out = p->out, k = 0;
    for (int64_t v = 0; v < n; v++)
        if (in_sep[v])
            out[k++] = p->subset[v];
    p->info[INFO_SEPARATOR] = k;
    for (uint8_t s = 0; s < 2; s++) {
        int64_t start = k;
        for (int64_t v = 0; v < n; v++)
            if (!in_sep[v] && p->side[v] == s)
                out[k++] = p->subset[v];
        p->info[INFO_LEFT + s] = k - start;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* construction: Algorithm 1's top-down pass                          */
/* ------------------------------------------------------------------ */

/*
 * Algorithm 1, lines 5-8: in stable tau order, every vertex v lowers
 * L_v[:k] to w(v, w) + L_w[:k] (k = tau(w) + 1) over its up slots, in
 * slot order. The caller has seeded the diagonal and the shortcut
 * weights; each candidate is the one double sum numpy's pass adds, so
 * the labels are its bits. The store (its plane-th weight plane) and
 * the labels are read through their bound records, order (the stable
 * tau order, n ids) is the call's own. Allocates nothing.
 */
void dhl_label_build(
    const store_record_t *record, int64_t plane,
    const labels_record_t *labels, const int64_t *order)
{
    const store_t st = store_open(record);
    const int64_t n = st.n;
    const double *weights = st.weights + st.m * plane;
    const int32_t *indptr = st.indptr, *indices = st.indices;
    const int64_t *tau = st.tau;
    double *values = BOUND(double, labels->values);
    const int64_t *offsets = BOUND(const int64_t, labels->offsets);
    for (int64_t i = 0; i < n; i++) {
        int64_t v = order[i];
        double *row = values + offsets[v];
        for (int64_t slot = indptr[v]; slot < indptr[v + 1]; slot++) {
            int64_t w = indices[slot], k = tau[w] + 1;
            const double *up = values + offsets[w];
            double weight = weights[slot];
            for (int64_t c = 0; c < k; c++) {
                double cand = weight + up[c];
                if (cand < row[c])
                    row[c] = cand;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* the service's result cache: one set-associative pair table          */
/* ------------------------------------------------------------------ */

/*
 * repro.service.cache.EpochLRUCache's table as its header record
 * describes it (repro.labelling.native.engine.PairTable fills the
 * record once, when the table is created): sets rows of ways slots,
 * slot = set * ways + way, in four columns (packed key, value, epoch
 * stamp, last-use tick). An empty slot has key 0 and tick 0. Both
 * kernels move the clock and the counters of the record themselves.
 */
typedef struct {
    int64_t sets, ways;
    int64_t keys, values, epochs, ticks; /* column addresses */
    int64_t tick, watermark;
    int64_t hits, misses, stored, replaced, lru_evictions;
} cache_header_t;

typedef struct {
    int64_t sets, ways, watermark;
    int64_t *keys, *epochs, *ticks;
    double *values;
} cache_t;

static cache_t cache_open(const cache_header_t *h)
{
    cache_t c = {h->sets, h->ways, h->watermark,
                 (int64_t *)(uintptr_t)h->keys,
                 (int64_t *)(uintptr_t)h->epochs,
                 (int64_t *)(uintptr_t)h->ticks,
                 (double *)(uintptr_t)h->values};
    return c;
}

/* A pair's key: lo << 32 | hi, non-zero unless the pair is (0, 0). */
static inline uint64_t cache_key(int64_t lo, int64_t hi)
{
    return (uint64_t)lo << 32 | (uint64_t)hi;
}

/* The key's set: ((key >> 32) * MIX ^ key) % sets, in uint64 so no
 * signed overflow reaches %; for 31-bit vertex ids it equals the int64
 * expression of the numpy oracle. */
static inline int64_t cache_set(uint64_t key, int64_t sets)
{
    return (int64_t)(((key >> 32) * UINT64_C(805306457) ^ key)
                     % (uint64_t)sets);
}

/* The slot of the first way of set that holds key, or -1. */
static inline int64_t cache_find(const cache_t *c, uint64_t key,
                                 int64_t set)
{
    int64_t base = set * c->ways;
    for (int64_t w = 0; w < c->ways; w++)
        if ((uint64_t)c->keys[base + w] == key)
            return base + w;
    return -1;
}

/* Open addressing over the non-zero keys of one call: a power-of-two
 * table at least twice the keys it will hold, linear probing. */
typedef struct {
    uint64_t *keys; /* 0: empty */
    int64_t *index;
    int64_t mask;
    int shift;
} key_set_t;

static int key_set_init(key_set_t *s, int64_t count)
{
    int bits = 1;
    while (((int64_t)1 << bits) < 2 * count)
        bits++;
    size_t size = (size_t)1 << bits;
    s->keys = malloc(size * (sizeof *s->keys + sizeof *s->index));
    if (!s->keys)
        return DHL_NOMEM;
    memset(s->keys, 0, size * sizeof *s->keys);
    s->index = (int64_t *)(s->keys + size);
    s->mask = (int64_t)size - 1;
    s->shift = 64 - bits;
    return 0;
}

/* The entry of key: found (*fresh 0) or claimed for it (*fresh 1). */
static inline int64_t key_set_entry(const key_set_t *s, uint64_t key,
                                    int *fresh)
{
    int64_t i = (int64_t)((key * UINT64_C(0x9E3779B97F4A7C15)) >> s->shift);
    while (s->keys[i] && s->keys[i] != key)
        i = (i + 1) & s->mask;
    *fresh = !s->keys[i];
    s->keys[i] = key;
    return i;
}

/*
 * The service door's probe of m pairs (pairs[2p], pairs[2p + 1]), one
 * at a time. A self-pair answers 0.0 and probes nothing. Any other pair
 * is ordered (min, max) unless directed and its key looked up in its
 * set: a live entry (epoch >= watermark) answers, and its tick becomes
 * tick + j, j the pair's index among the probed pairs; a stale match is
 * dropped (key 0, tick 0) and misses. The i-th miss is at
 * miss_positions[i]; misses are deduplicated by key, the distinct pairs
 * written ordered to misses (u x 2) in first-seen order and
 * miss_inverse[i] is the i-th miss's row there. A miss leaves out[p]
 * unwritten. The clock then moves by the probes and the hit and miss
 * counters by theirs; counts gets (probes, hits, u). Returns 0, or
 * DHL_NOMEM with the table untouched.
 */
int dhl_cache_probe(
    cache_header_t *h, int64_t m, const int64_t *pairs, int directed,
    double *out, int64_t *misses, int64_t *miss_positions,
    int64_t *miss_inverse, int64_t *counts)
{
    key_set_t seen;
    if (key_set_init(&seen, m) < 0)
        return DHL_NOMEM;
    const cache_t c = cache_open(h);
    int64_t probes = 0, hits = 0, missed = 0, distinct = 0;
    for (int64_t p = 0; p < m; p++) {
        int64_t lo = pairs[2 * p], hi = pairs[2 * p + 1];
        if (lo == hi) {
            out[p] = 0.0;
            continue;
        }
        if (!directed && lo > hi) {
            int64_t x = lo;
            lo = hi;
            hi = x;
        }
        uint64_t key = cache_key(lo, hi);
        int64_t slot = cache_find(&c, key, cache_set(key, c.sets));
        if (slot >= 0 && c.epochs[slot] >= c.watermark) {
            out[p] = c.values[slot];
            c.ticks[slot] = h->tick + probes;
            hits++;
        } else {
            if (slot >= 0)
                c.keys[slot] = c.ticks[slot] = 0;
            int fresh;
            int64_t e = key_set_entry(&seen, key, &fresh);
            if (fresh) {
                seen.index[e] = distinct;
                misses[2 * distinct] = lo;
                misses[2 * distinct + 1] = hi;
                distinct++;
            }
            miss_positions[missed] = p;
            miss_inverse[missed++] = seen.index[e];
        }
        probes++;
    }
    free(seen.keys);
    h->tick += probes;
    h->hits += hits;
    h->misses += probes - hits;
    counts[0] = probes;
    counts[1] = hits;
    counts[2] = distinct;
    return 0;
}

static inline void cache_store(const cache_t *c, int64_t slot, uint64_t key,
                               double value, int64_t epoch, int64_t tick)
{
    c->keys[slot] = (int64_t)key;
    c->values[slot] = value;
    c->epochs[slot] = epoch;
    c->ticks[slot] = tick;
}

/*
 * Store count distinct ordered pairs (key lo << 32 | hi) with values[i],
 * stamped with epoch; a batch stamped below the watermark is ignored.
 * Stored key i gets tick + i. A key already in its set, live or stale,
 * is overwritten in place, and counted in replaced if it was live. Then
 * the new keys go in from the last to the first, each into its set's
 * first way of the least age (0 for an empty or stale way, else the
 * tick), an LRU eviction when that way is live; a set takes at most
 * ways new keys of one batch, so of more only the last ways in batch
 * order are placed. This is the placement of the numpy oracle's
 * election rounds, which place one key per set per round, the last
 * first. Every stored key counts in stored; the clock then moves by
 * count. Returns 0, or DHL_NOMEM with the table untouched.
 */
int dhl_cache_fill(
    cache_header_t *h, int64_t count, const int64_t *pairs,
    const double *values, int64_t epoch)
{
    if (epoch < h->watermark)
        return 0;
    key_set_t taken; /* set + 1 -> new keys it has taken */
    int64_t *set_of = malloc(((size_t)count + 1) * sizeof *set_of);
    if (!set_of || key_set_init(&taken, count) < 0) {
        free(set_of);
        return DHL_NOMEM;
    }
    const cache_t c = cache_open(h);
    int64_t ways = c.ways, tick = h->tick, stored = 0;
    for (int64_t i = 0; i < count; i++) {
        uint64_t key = cache_key(pairs[2 * i], pairs[2 * i + 1]);
        int64_t set = cache_set(key, c.sets);
        int64_t slot = cache_find(&c, key, set);
        set_of[i] = slot < 0 ? set : -1;
        if (slot >= 0) {
            h->replaced += c.epochs[slot] >= c.watermark;
            cache_store(&c, slot, key, values[i], epoch, tick + i);
            stored++;
        }
    }
    for (int64_t i = count - 1; i >= 0; i--) {
        int64_t set = set_of[i];
        if (set < 0)
            continue;
        int fresh;
        int64_t e = key_set_entry(&taken, (uint64_t)set + 1, &fresh);
        if (fresh)
            taken.index[e] = 0;
        if (taken.index[e] == ways)
            continue;
        taken.index[e]++;
        int64_t base = set * ways, best = base, best_age = INT64_MAX;
        for (int64_t slot = base; slot < base + ways; slot++) {
            int64_t age = c.epochs[slot] < c.watermark ? 0 : c.ticks[slot];
            if (age < best_age) {
                best_age = age;
                best = slot;
            }
        }
        h->lru_evictions += best_age > 0;
        cache_store(&c, best, cache_key(pairs[2 * i], pairs[2 * i + 1]),
                    values[i], epoch, tick + i);
        stored++;
    }
    free(set_of);
    free(taken.keys);
    h->stored += stored;
    h->tick += count;
    return 0;
}
