/* The two compiled loops of boi: the weighted gather+vote of a query over
 * the probed buckets of every hash table, and the counting sort that
 * builds those buckets.
 *
 * boi_gather_vote: table t probes the first budgets[t] + 1 codes of its row
 * of ``probes``: every id in the bucket of the code c at position j,
 * members[t, offsets[t, c]:offsets[t, c + 1]], gains units[j] votes. The
 * kernel only adds them; index.weight sets them (BoiIndex.units).
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
 *     tile's votes stay in L1 while every range writes into them.
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
 * hashed into ``members`` into the CSR ``offsets`` and the record ids of
 * every bucket, ascending within a bucket (its own comment, below).
 */
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

/* Bucket every record id of every table by its code, in one counting sort.
 *
 * On entry, row t of ``members`` holds table t's codes, n uint16 values in
 * the upper half of its 4n bytes (hashing.insert_all hashes them there).
 * On return it holds the n record ids grouped by code and ascending within
 * a bucket, the order a stable argsort of the codes gives, and offsets[t]
 * (2**bits + 1 values) the CSR offsets of its buckets. Per table:
 *   copy: the codes go to ``scratch`` (n uint16), since the ids overwrite
 *     them;
 *   count: offsets[t, c + 1] counts the records of code c;
 *   prefix: an exclusive running sum turns offsets[t, c + 1] into the
 *     start of bucket c (offsets[t, 0] is 0);
 *   scatter: ids in ascending order go to members[t, offsets[t, c + 1]],
 *     which then advances, so it ends as the stop of bucket c, that is,
 *     offsets[t, c + 1] as the CSR layout wants it.
 * Each pass reads its table's codes in order, and no memory is used beyond
 * the outputs and one table's codes.
 *
 * Every code is checked against 2**bits in the count pass, before it is
 * used as an index; the scatter reads the same scratch again. Returns 0,
 * or -1 for a code >= 2**bits, bits outside [1, 16] or n outside
 * [0, INT32_MAX]; offsets and members are then partly written.
 */
int64_t boi_bucket_sort(
    int64_t num_tables, int64_t bits, int64_t n,
    int32_t *offsets,                   /* (num_tables, 2**bits + 1) */
    int32_t *members,                   /* (num_tables, n) */
    uint16_t *scratch)                  /* (n,) */
{
    if (bits < 1 || bits > 16 || n < 0 || n > INT32_MAX)
        return -1;
    const int64_t num_buckets = (int64_t)1 << bits;
    for (int64_t t = 0; t < num_tables; t++) {
        int32_t *const row = members + t * n;
        int32_t *const next = offsets + t * (num_buckets + 1) + 1;
        memcpy(scratch, (const char *)row + 2 * n, 2 * n);
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
        for (int64_t i = 0; i < n; i++)
            row[next[scratch[i]]++] = (int32_t)i;
    }
    return 0;
}
