/* The four compiled loops of boi: the weighted gather+vote of a query over
 * the probed buckets of every hash table, the counting sort that builds
 * those buckets, the check of a snapshot's table record as it is loaded,
 * and the sign filter that turns dot products into codes.
 *
 * Buckets hold internal ids: record i of the index is internal id j where
 * order[j] = i, and ``order`` lists the records in table 0's bucket order
 * (boi_bucket_sort). So table 0's buckets are runs of consecutive ids, and
 * records that share a bucket of table 0, which tend to share buckets of
 * the other tables too, have nearby ids there as well.
 *
 * boi_gather_vote: table t probes the first budgets[t] + 1 codes of its row
 * of ``probes``: every id in the bucket of the code c at position j,
 * members[t, offsets[t, c]:offsets[t, c + 1]], gains units[j] votes. The
 * kernel only adds them; index.weight sets them (BoiIndex.units). The votes
 * are in internal order; index.shortlist maps the ids it keeps to records.
 *
 * Codes are uint16 and offsets int32, as in core.CODE_DTYPE and
 * core.OFFSET_DTYPE, so bits is at most 16 (core.MAX_HASH_BITS).
 *
 * The vote is a cache-blocked scatter (Boncz, Manegold and Kersten, VLDB
 * 1999). Each probed bucket scatters its ids across the whole (n,) vote
 * array, which at n = 100k is 400 KB, far larger than L1. So the kernel
 * works in two steps:
 *   collect: each non-empty probed bucket becomes a range (next, stop,
 *     vote) in a batch of BATCH ranges on the stack, so a query that
 *     probes the whole code space needs no heap and no more memory;
 *   sweep: when the batch is full, and once at the end, the id space is
 *     walked in tiles of TILE ids. Every live range adds its vote to its
 *     ids below the tile's end and resumes there at the next tile. Ids
 *     ascend within a bucket, so each range is read once in all, and a
 *     tile's votes stay in L1 while every range writes into them. A
 *     range of nearby internal ids ends within few tiles, so a sweep
 *     starts fewer member streams than over ids in arrival order.
 * TILE is 8192 ids, 32 KiB of int32 votes, which leaves room in a 48 KiB
 * L1d for the ranges' member streams. Timing the kernel alone on the
 * benchmark's data, 4096 and 16384 were slower at b=8 and b=16, and
 * 12288 no faster. BATCH bounds the stack at 24 KiB of ranges; a sweep
 * over a full batch visits each range about n / TILE times, which is
 * small beside the ids it adds.
 *
 * Every value read from an array is checked before it is used as an index,
 * so a corrupt table returns -1 instead of reading or writing out of
 * bounds. An id >= n, or a negative one read as uint32, is below no
 * tile's end, so it leaves its range open after the last tile (whose end
 * is n), and an open range means a corrupt table. Ids out of order within
 * a bucket are still counted exactly, in a later tile. Otherwise the
 * return value is the number of (id, vote) pairs scanned. Sums are exact
 * integers, so their order does not matter.
 *
 * boi_bucket_sort, the second entry point, builds the tables the first one
 * reads: one counting sort per table turns the codes hashing.insert_all
 * hashed into ``members`` into the CSR ``offsets`` and the internal ids of
 * every bucket, ascending within a bucket, and table 0's sort gives
 * ``order`` (its own comment, below).
 *
 * boi_check_table, the third, checks one table record of a snapshot and
 * turns its bucket counts into offsets, for data_io.load_index.
 *
 * boi_hash_codes, the fourth, turns the float32 dot products of
 * hashing.hash_codes_all into codes, recomputing in float64 each sign the
 * float32 error bound cannot decide (its own comment, at the end).
 */
#include <math.h> /* INFINITY and fabsf, which need no libm */
#include <stdint.h>
#include <string.h>

#define TILE 8192
#define BATCH 1024

struct range {
    const int32_t *next, *stop;
    uint32_t vote;
};

/* Add every range of the batch to votes, tile by tile; -1 if one stays
 * open after the last tile. */
static int sweep(struct range *batch, int64_t live, int64_t n, int32_t *votes)
{
    for (int64_t lo = 0; lo < n && live > 0; lo += TILE) {
        const uint32_t end = (uint32_t)(n - lo > TILE ? lo + TILE : n);
        for (int64_t k = 0; k < live;) {
            const int32_t *p = batch[k].next, *const stop = batch[k].stop;
            const uint32_t vote = batch[k].vote;
            uint32_t id;
            while (p < stop && (id = (uint32_t)*p) < end) {
                /* unsigned, so even a corrupt table cannot overflow */
                votes[id] = (int32_t)((uint32_t)votes[id] + vote);
                p++;
            }
            if (p == stop) {
                batch[k] = batch[--live]; /* done: the last range takes its slot */
            } else {
                batch[k].next = p;
                k++;
            }
        }
    }
    return live > 0 ? -1 : 0;
}

int64_t boi_gather_vote(
    int64_t num_tables, int64_t bits, int64_t n,
    const int32_t *offsets,             /* (num_tables, 2**bits + 1) */
    const int32_t *members,             /* (num_tables, n) */
    const uint16_t *probes, int64_t width, /* (num_tables, width) */
    const uint32_t *units,              /* (width,) */
    const int64_t *budgets,             /* (num_tables,) */
    int32_t *votes)                     /* (n,) */
{
    /* tile ends are uint32 and ids int32 (hashing.check_record_count) */
    if (bits < 1 || bits > 16 || n > INT32_MAX)
        return -1;
    const int64_t num_buckets = (int64_t)1 << bits;
    struct range batch[BATCH];
    int64_t live = 0, scanned = 0;
    for (int64_t t = 0; t < num_tables; t++) {
        const int64_t count = budgets[t] + 1;
        if (count < 1 || count > width)
            return -1;
        const int32_t *off = offsets + t * (num_buckets + 1);
        const int32_t *row = members + t * n;
        const uint16_t *codes = probes + t * width;
        for (int64_t j = 0; j < count; j++) {
            const int64_t c = codes[j];
            if (c >= num_buckets)
                return -1;
            const int64_t start = off[c], stop = off[c + 1];
            if (start < 0 || start > stop || stop > n)
                return -1;
            if (start == stop)
                continue;
            batch[live++] = (struct range){row + start, row + stop, units[j]};
            scanned += stop - start;
            if (live == BATCH) {
                if (sweep(batch, live, n, votes) < 0)
                    return -1;
                live = 0;
            }
        }
    }
    if (sweep(batch, live, n, votes) < 0)
        return -1;
    return scanned;
}

/* Bucket the records of every table by their codes, in one counting sort
 * per table, and number them in table 0's bucket order.
 *
 * On entry, row t of ``members`` holds table t's codes of records 0..n-1,
 * n uint16 values in the upper half of its 4n bytes (hashing.insert_all
 * hashes them there). On return ``order`` (n values) lists the records
 * grouped by table 0's code and ascending within a bucket, the order a
 * stable argsort of table 0's codes gives; internal id i is record
 * order[i]. Row 0 of ``members`` is then 0..n-1, and row t > 0 holds the
 * n internal ids grouped by table t's code, ascending within a bucket.
 * offsets[t] (2**bits + 1 values) gets the CSR offsets of table t's
 * buckets. Per table:
 *   load: the codes go to ``scratch`` (n uint16), since the ids overwrite
 *     them; table 0 copies its row, and table t > 0 gathers code
 *     codes_t[order[i]] of internal id i, so the ids it scatters are
 *     internal ones;
 *   count: offsets[t, c + 1] counts the records of code c;
 *   prefix: an exclusive running sum turns offsets[t, c + 1] into the
 *     start of bucket c (offsets[t, 0] is 0);
 *   scatter: ids in ascending order go to out[offsets[t, c + 1]], which
 *     then advances, so it ends as the stop of bucket c, that is,
 *     offsets[t, c + 1] as the CSR layout wants it; ``out`` is ``order``
 *     for table 0 and the table's row otherwise.
 * No memory is used beyond the outputs and one table's codes.
 *
 * Every code is checked against 2**bits in the count pass, before it is
 * used as an index; the scatter reads the same scratch again. Returns 0,
 * or -1 for a code >= 2**bits, bits outside [1, 16] or n outside
 * [0, INT32_MAX]; offsets, members and order are then partly written.
 */
int64_t boi_bucket_sort(
    int64_t num_tables, int64_t bits, int64_t n,
    int32_t *offsets,                   /* (num_tables, 2**bits + 1) */
    int32_t *members,                   /* (num_tables, n) */
    int32_t *order,                     /* (n,) */
    uint16_t *scratch)                  /* (n,) */
{
    if (bits < 1 || bits > 16 || n < 0 || n > INT32_MAX)
        return -1;
    const int64_t num_buckets = (int64_t)1 << bits;
    for (int64_t t = 0; t < num_tables; t++) {
        int32_t *const row = members + t * n;
        int32_t *const next = offsets + t * (num_buckets + 1) + 1;
        const uint16_t *const codes = (const uint16_t *)row + n;
        if (t == 0) {
            memcpy(scratch, codes, 2 * n);
        } else {
            for (int64_t i = 0; i < n; i++)
                scratch[i] = codes[order[i]];
        }
        offsets[t * (num_buckets + 1)] = 0;
        memset(next, 0, num_buckets * sizeof *next);
        for (int64_t i = 0; i < n; i++) {
            if (scratch[i] >= num_buckets)
                return -1;
            next[scratch[i]]++;
        }
        int32_t start = 0;
        for (int64_t c = 0; c < num_buckets; c++) {
            const int32_t count = next[c];
            next[c] = start;
            start += count;
        }
        int32_t *const out = t == 0 ? order : row;
        for (int64_t i = 0; i < n; i++)
            out[next[scratch[i]]++] = (int32_t)i;
        if (t == 0) {
            for (int64_t i = 0; i < n; i++)
                row[i] = (int32_t)i;
        }
    }
    return 0;
}

/* Check one table record of a snapshot, as data_io.load_index reads it,
 * in one pass over its counts and one over its ids.
 *
 * ``offsets`` (2**bits + 1 values) holds the record's bucket counts, read
 * as uint32, from offsets[1] on. They are summed as uint64, so no count
 * can wrap the total, and must sum to n; then a running sum turns them in
 * place into the CSR offsets, from offsets[0] = 0. ``ids`` (n values) is
 * the record's id row, read as uint32: every id must be below n, and
 * their wrapping uint32 sum must be n(n - 1)/2 mod 2**32, the sum of
 * 0..n-1, which any single flipped bit of a permutation changes by a
 * power of two below 2**32. The id pass has no branch and no compare, so
 * it vectorises (a compare-select max did not, under the default flags).
 *
 * Returns 0 when the record passes, 1 when the counts do not sum to n
 * (``offsets`` then unchanged), 2 when an id is n or more, 3 when the ids'
 * sum is wrong, and -1 for bits outside [1, 16] or n outside
 * [0, INT32_MAX].
 */
int64_t boi_check_table(
    int64_t bits, int64_t n,
    int32_t *offsets,                   /* (2**bits + 1,) */
    const uint32_t *ids)                /* (n,) */
{
    if (bits < 1 || bits > 16 || n < 0 || n > INT32_MAX)
        return -1;
    const int64_t num_buckets = (int64_t)1 << bits;
    const uint32_t *const counts = (const uint32_t *)offsets + 1;
    uint64_t total = 0;
    for (int64_t c = 0; c < num_buckets; c++)
        total += counts[c];
    if (total != (uint64_t)n)
        return 1;
    uint32_t stop = 0; /* at most n, so int32 holds every offset */
    offsets[0] = 0;
    for (int64_t c = 0; c < num_buckets; c++) {
        stop += counts[c];
        offsets[c + 1] = (int32_t)stop;
    }
    /* an id v is below n <= 2**31 - 1 iff neither v nor (n - 1) - v,
     * wrapped, has its top bit set: two ORs instead of an unsigned compare,
     * which SSE2 lacks */
    const uint32_t last = (uint32_t)n - 1;
    uint32_t bad = 0, sum = 0;
    for (int64_t i = 0; i < n; i++) {
        bad |= ids[i] | (last - ids[i]);
        sum += ids[i];
    }
    if (bad >> 31)
        return 2;
    return sum == (uint32_t)((uint64_t)n * (uint64_t)(n - 1) / 2) ? 0 : 3;
}

/* Bucket codes from float32 dot products, each sign the float32 error
 * bound cannot decide recomputed in float64 (a floating-point filter, as
 * in Shewchuk's robust predicates).
 *
 * ``dots`` (num_tables * bits, rows) holds one float32 matrix product:
 * dots[j, r] is the dot of record r (row r of ``x``) with projection row j
 * (row j of ``proj``), summed in any order. hashing._sign_filter sets
 * ``bound`` so that bound * h is at or above any such sum's error,
 * rounding and underflow, for any h >= max(||x||, 2**-31) while ||x|| *
 * max ||p_j|| is far below float32's overflow. norm_bound finds such an h,
 * a power of two, so each record's limit bound * h is exact; a record
 * outside that range gets h = +inf, so all its dots are recomputed. A dot
 * with |dots[j, r]| > limit has the sign of the exact dot, which is then
 * so far from 0 that a float64 sum agrees with it too. Every other dot
 * (NaN included) is recomputed as the float64 sum of its exact float32
 * products in index order, so a record's code never depends on the other
 * records of its batch. Bit j of table t's code is 1 iff the dot with row
 * t * bits + j is >= 0, so a sign of 0 or -0 sets it.
 *
 * Records go HASH_BLOCK at a time, and each record's limit is worked out
 * once per block. Per projection row, a first pass over the block ORs the
 * row's sign bits into ``code`` and notes whether any dot is within its
 * limit; only then does a second pass (``recompute``) find those dots and
 * recompute them. The first pass vectorises. Table t's finished codes go
 * to out[r * record_stride + t * table_stride] (strides in uint16
 * elements, either sign), so hashing.insert_all can write them straight
 * into its ``members`` rows. Returns the number of dots recomputed, or -1
 * for bits outside [1, 16] or a negative size. No libm function is called
 * (fabsf compiles to a mask).
 */
#define HASH_BLOCK 1024

/* A power of two at or above ||x|| when ||x||**2 lies in [2**-62,
 * safe_square) and below 2**250, otherwise +inf; so h stays a normal
 * float32 in [2**-31, 2**125]. The float64 sum of squares is exact to
 * dim * 2**-53 and is widened by twice that. */
static float norm_bound(const float *x, int64_t dim, double safe_square)
{
    double even = 0.0, odd = 0.0;
    int64_t i = 0;
    for (; i + 1 < dim; i += 2) {
        even += (double)x[i] * (double)x[i];
        odd += (double)x[i + 1] * (double)x[i + 1];
    }
    if (i < dim)
        even += (double)x[i] * (double)x[i];
    const double squares = (even + odd) * (1.0 + (double)dim * 0x1p-52);
    if (!(squares >= 0x1p-62 && squares < safe_square && squares < 0x1p250))
        return INFINITY;
    float h = 1.0f;
    while ((double)h * h < squares)
        h *= 2.0f;
    while ((double)h * h >= 4.0 * squares)
        h *= 0.5f;
    return h;
}

/* Recompute bit ``bit`` of every code whose dot in ``row`` is within
 * limit[r], as the float64 sum of the exact products of record r (row r
 * of x, dim values) with projection row p in index order; return how many
 * were. */
static int64_t recompute(
    int64_t count, const float *row, const float *limit, const float *x,
    const float *p, int64_t dim, int64_t bit, uint32_t *code)
{
    int64_t recomputed = 0;
    for (int64_t r = 0; r < count; r++) {
        if (fabsf(row[r]) > limit[r])
            continue;
        const float *const xr = x + r * dim;
        double sum = 0.0;
        for (int64_t i = 0; i < dim; i++)
            sum += (double)xr[i] * (double)p[i];
        code[r] = (code[r] & ~(1u << bit)) | (uint32_t)(sum >= 0.0) << bit;
        recomputed++;
    }
    return recomputed;
}

int64_t boi_hash_codes(
    int64_t num_tables, int64_t bits, int64_t rows, int64_t dim,
    const float *dots,                  /* (num_tables * bits, rows) */
    const float *x,                     /* (rows, dim) */
    const float *proj,                  /* (num_tables * bits, dim) */
    float bound, double safe_square,
    uint16_t *out, int64_t record_stride, int64_t table_stride)
{
    if (bits < 1 || bits > 16 || num_tables < 0 || rows < 0 || dim < 0)
        return -1;
    float limit[HASH_BLOCK];
    uint32_t code[HASH_BLOCK];
    int64_t recomputed = 0;
    for (int64_t lo = 0; lo < rows; lo += HASH_BLOCK) {
        const int64_t count = rows - lo < HASH_BLOCK ? rows - lo : HASH_BLOCK;
        const float *const xs = x + lo * dim;
        for (int64_t r = 0; r < count; r++)
            limit[r] = bound * norm_bound(xs + r * dim, dim, safe_square);
        for (int64_t t = 0; t < num_tables; t++) {
            memset(code, 0, count * sizeof *code);
            for (int64_t bit = 0; bit < bits; bit++) {
                const int64_t j = t * bits + bit;
                const float *const row = dots + j * rows + lo;
                uint32_t undecided = 0;
                for (int64_t r = 0; r < count; r++) {
                    code[r] |= (uint32_t)(row[r] >= 0.0f) << bit;
                    undecided |= !(fabsf(row[r]) > limit[r]);
                }
                if (undecided)
                    recomputed += recompute(
                        count, row, limit, xs, proj + j * dim, dim, bit, code);
            }
            uint16_t *const col = out + lo * record_stride + t * table_stride;
            for (int64_t r = 0; r < count; r++)
                col[r * record_stride] = (uint16_t)code[r];
        }
    }
    return recomputed;
}
