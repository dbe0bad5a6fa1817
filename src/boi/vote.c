/* The seven compiled loops of boi: the probe rows of a query, ordered by
 * its margins, the weighted gather+vote of a query over the probed buckets
 * of every hash table, the counting sort that builds those buckets, the
 * two checks of a snapshot's table record as it is loaded, the check of
 * the tables' bucket directory, and the sign filter that turns dot
 * products into codes.
 *
 * Buckets hold internal ids: record i of the index is internal id j where
 * order[j] = i, and ``order`` lists the records in table 0's bucket order
 * (boi_bucket_sort). So table 0's buckets are runs of consecutive ids, and
 * records that share a bucket of table 0, which tend to share buckets of
 * the other tables too, have nearby ids there as well.
 *
 * A table's buckets are found through a directory of its non-empty buckets
 * only, a rank directory over a bitmap (Jacobson, FOCS 1989). A b-bit
 * table has 2**b codes, but at b = 16 over the benchmark's 100k records
 * only about 160 of them hold a record, so a dense row of 2**b + 1
 * offsets (256 KiB a table) would mostly describe empty buckets. Per
 * table, in words of 64 codes (WORDS(bits) of them, one when b < 6):
 *   bitmap: bit c % 64 of word c / 64 is set iff bucket c holds a record;
 *     no bit is set for a code at or past 2**b;
 *   offsets: the table's piece, the start of each of its k non-empty
 *     buckets in code order, then n; the pieces of tables 0..L-1 follow
 *     each other in one array, so table t's begins after the k + 1 values
 *     of every earlier table;
 *   rank: rank[w] is the position in ``offsets`` of the table's first
 *     non-empty bucket at or after word w: where its piece begins, plus
 *     the set bits of its words 0..w-1. It is derived from the bitmap
 *     alone, by boi_check_directory, the one place that counts positions.
 * When bit c is set, bucket c holds members[t, offsets[i]:offsets[i + 1]],
 * i = rank[c / 64] + popcount(the word's bits below c % 64).
 * Codes are uint16 and offsets int32, as in core.CODE_DTYPE and
 * core.OFFSET_DTYPE, so bits is at most 16 (core.MAX_HASH_BITS).
 *
 * boi_gather_vote: table t probes the first budgets[t] + 1 codes of its row
 * of ``probes``: every id in the bucket of the code c at position j gains
 * units[j] votes. A code whose bit is clear is skipped without reading the
 * offsets. The kernel only adds the votes; index.weight sets them
 * (BoiIndex.plan.units). The votes are in internal order; index.shortlist
 * maps the ids it keeps to records.
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
 * bounds: a code past 2**b, a bucket position outside the offsets, or
 * offsets that decrease or leave [0, n]. hashing.ProjectionTable checks the
 * whole directory and makes the rank from it (boi_check_directory), so a
 * rank that disagrees with the bitmap, or a bit past 2**b, which would
 * move a bucket within the offsets, never reaches the kernel from there.
 * An id >= n, or a negative one read as uint32, is below no tile's end,
 * so it leaves its range open after the last tile (whose end is n),
 * and an open range means a corrupt table. Ids out of order within a
 * bucket are still counted exactly, in a later tile. Otherwise the return
 * value is the number of (id, vote) pairs scanned. Sums are exact
 * integers, so their order does not matter.
 *
 * boi_probe_rows, the second entry point, writes the rows the first one
 * probes: each table's query code XOR the masks of its probe plan, with
 * the table's last, partly probed shell ordered by the query's margins
 * (its own comment, below).
 *
 * boi_bucket_sort, the third, builds one table of the index:
 * hashing.insert_all hashed the codes into ``members``, and one counting
 * sort turns them into the internal ids of every bucket, ascending within
 * a bucket, and the table's directory; table 0's sort gives ``order`` (its
 * own comment, below).
 *
 * boi_table_buckets and boi_check_table, the fourth and fifth, count the
 * non-empty buckets of one table record of a snapshot and check the
 * record, turning its bucket sizes into the table's piece of offsets in
 * place, for data_io.load_index.
 *
 * boi_check_directory, the sixth, checks a whole directory and makes its
 * rank, for hashing.ProjectionTable.
 *
 * boi_hash_codes, the seventh, turns the float32 dot products of
 * hashing.hash_codes_all into codes, recomputing in float64 each sign the
 * float32 error bound cannot decide (its own comment, at the end).
 */
#include <math.h> /* INFINITY and fabsf, which need no libm */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TILE 8192
#define BATCH 1024
/* 64-bit words of a table's bitmap and rank: 2**bits / 64, at least one */
#define WORDS(bits) ((bits) > 6 ? (int64_t)1 << ((bits) - 6) : (int64_t)1)
/* the bits of a table's one word that stand for codes at or past 2**bits,
 * when bits < 6; none otherwise */
#define PAST(bits) ((bits) < 6 ? ~UINT64_C(0) << (1 << (bits)) : UINT64_C(0))

/* The set bits of x, as a branch-free broadword sum (Vigna, "Broadword
 * implementation of rank/select queries", WEA 2008): vote.c is built
 * without -mpopcnt, where __builtin_popcountll calls a library routine. */
static inline int64_t popcount(uint64_t x)
{
    x -= (x >> 1) & UINT64_C(0x5555555555555555);
    x = (x & UINT64_C(0x3333333333333333)) + ((x >> 2) & UINT64_C(0x3333333333333333));
    x = (x + (x >> 4)) & UINT64_C(0x0f0f0f0f0f0f0f0f);
    return (int64_t)((x * UINT64_C(0x0101010101010101)) >> 56);
}

/* Turn one table's bucket counts, offsets[1..2**bits] (each at least 0,
 * summing to at most INT32_MAX), into its directory: ``bitmap`` gets the
 * table's WORDS(bits) words, and the first k + 1 offsets become its piece
 * of offsets, the start of each of its k non-empty buckets in code order,
 * then the sum; returns k + 1, the piece's length. A word's counts are
 * ORed first, which vectorises, so an empty word costs no more; only the
 * set bits of the others are visited in order. Each start is written at
 * or before the count of the bucket it starts, and after every count
 * before it has been read, so the pass runs in place. */
static int64_t directory(int64_t bits, int32_t *offsets, uint64_t *bitmap)
{
    const int64_t num_buckets = (int64_t)1 << bits;
    const int64_t per_word = num_buckets < 64 ? num_buckets : 64;
    const int32_t *const counts = offsets + 1;
    int32_t start = 0;
    int64_t k = 0;
    for (int64_t w = 0; w < WORDS(bits); w++) {
        const int32_t *const here = counts + 64 * w;
        uint32_t any = 0;
        for (int64_t j = 0; j < per_word; j++)
            any |= (uint32_t)here[j];
        uint64_t word = 0;
        if (any) {
            for (int64_t j = 0; j < per_word; j++)
                word |= (uint64_t)(here[j] != 0) << j;
        }
        bitmap[w] = word;
        for (uint64_t left = word; left; left &= left - 1) {
            const int32_t count = here[__builtin_ctzll(left)];
            offsets[k++] = start;
            start += count;
        }
    }
    offsets[k] = start;
    return k + 1;
}

struct range {
    const int32_t *next, *stop;
    uint32_t vote;
};

/* HOT starts a function on a 64-byte boundary, so the speed of its inner
 * loops does not hang on the code placed before it. Without it, the three
 * library calls boi_probe_rows added to the PLT moved sweep 48 bytes and
 * slowed the b=8 gather+vote from 0.37 to 0.51 ms a query (the benchmark's
 * seed-1 data); aligned, it kept its speed. */
#define HOT __attribute__((aligned(64)))

/* Add every range of the batch to votes, tile by tile; -1 if one stays
 * open after the last tile. */
HOT static int sweep(struct range *batch, int64_t live, int64_t n, int32_t *votes)
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

HOT int64_t boi_gather_vote(
    int64_t num_tables, int64_t bits, int64_t n,
    const uint64_t *bitmap,             /* (num_tables, WORDS(bits)) */
    const int32_t *rank,                /* (num_tables, WORDS(bits)) */
    const int32_t *offsets, int64_t num_offsets, /* (num_offsets,) */
    const int32_t *members,             /* (num_tables, n) */
    const uint16_t *probes, int64_t width, /* (num_tables, width) */
    const uint32_t *units,              /* (width,) */
    const int64_t *budgets,             /* (num_tables,) */
    int32_t *votes)                     /* (n,) */
{
    /* tile ends are uint32 and ids int32 (hashing.check_record_count) */
    if (bits < 1 || bits > 16 || n > INT32_MAX)
        return -1;
    const int64_t num_buckets = (int64_t)1 << bits, words = WORDS(bits);
    struct range batch[BATCH];
    int64_t live = 0, scanned = 0;
    for (int64_t t = 0; t < num_tables; t++) {
        const int64_t count = budgets[t] + 1;
        if (count < 1 || count > width)
            return -1;
        const uint64_t *const bm = bitmap + t * words;
        const int32_t *const rk = rank + t * words;
        const int32_t *row = members + t * n;
        const uint16_t *codes = probes + t * width;
        for (int64_t j = 0; j < count; j++) {
            const int64_t c = codes[j];
            if (c >= num_buckets)
                return -1;
            const uint64_t word = bm[c >> 6];
            const int64_t bit = c & 63;
            if (!(word >> bit & 1))
                continue; /* an empty bucket */
            const int64_t at = rk[c >> 6] + popcount(word & ((UINT64_C(1) << bit) - 1));
            if (at < 0 || at + 1 >= num_offsets)
                return -1;
            const int64_t start = offsets[at], stop = offsets[at + 1];
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

/* Probe rows ordered by the query's margins, as in query-directed probing
 * (Lv et al., "Multi-Probe LSH", VLDB 2007).
 *
 * Row t of ``probes`` (width codes) is codes[t] XOR each of the plan's
 * ``masks``: mask 0, then whole Hamming shells (index.probe_plan). Every
 * position keeps plan order except those in [shells[2t], shells[2t + 1]),
 * the table's last, partly probed shell. There the masks go by ascending
 * margin: the float64 sum, over the bits j a mask flips and in ascending
 * j, of |dots[t * bits + j]|, how far bit j's projection lies from its
 * sign boundary. A near neighbour most likely differs from the query in
 * the bits closest to their boundaries, so the part of the shell a budget
 * reaches holds the most likely buckets. Ties keep plan order, and a
 * non-finite sum (a dot that overflowed, or NaN) sorts last. An empty
 * range keeps the whole row in plan order. Every mask of a shell flips as
 * many bits, so a reordered position keeps its units.
 *
 * Every shell is ordered by qsort in O(s log s), up to C(16, 8) = 12870
 * masks, on the heap when it has more than SMALL_SHELL; the position in
 * the plan breaks ties, so the order is total and qsort need not be
 * stable. A shell of up to SMALL_SHELL masks, the only size the default
 * plans reorder, first tries rank_small, which gives the same order with
 * no call per comparison and no branch on the margins, and falls back to
 * qsort when two margins round to one float32 value. Returns 0, -1 for
 * bits outside [1, 16] or a shell outside the row, or -2 when the heap
 * has no room.
 */
#define SMALL_SHELL 64

struct keyed {
    double margin;
    int64_t at; /* position in the plan */
};

static int by_margin(const void *a, const void *b)
{
    const struct keyed *x = a, *y = b;
    if (x->margin != y->margin)
        return x->margin < y->margin ? -1 : 1;
    return (x->at > y->at) - (x->at < y->at);
}

/* rank[i] = how many of the s <= SMALL_SHELL margins, rounded to float32,
 * lie below key[i]'s; 1 if those ranks are 0..s-1, 0 otherwise. Rounding
 * to float32 never reverses the order of two margins, though it may make
 * them equal, so ranks that are all distinct are the places by_margin
 * gives. The float32 counts vectorise; the padding of ``near`` to whole
 * vectors of 8 is +inf, below no margin. */
static int rank_small(const struct keyed *key, int64_t s, int32_t *rank)
{
    float near[SMALL_SHELL];
    const int64_t wide = (s + 7) & ~(int64_t)7;
    for (int64_t i = 0; i < wide; i++)
        near[i] = i < s ? (float)key[i].margin : INFINITY;
    uint64_t seen = 0;
    for (int64_t i = 0; i < s; i++) {
        const float x = near[i];
        int32_t below = 0;
        for (int64_t j = 0; j < wide; j++)
            below += near[j] < x;
        rank[i] = below;
        seen |= (uint64_t)1 << below;
    }
    return seen == ~(uint64_t)0 >> (64 - s);
}

int64_t boi_probe_rows(
    int64_t num_tables, int64_t bits, int64_t width,
    const uint16_t *codes,              /* (num_tables,) */
    const float *dots,                  /* (num_tables * bits,) */
    const uint16_t *masks,              /* (width,) */
    const int64_t *shells,              /* (num_tables, 2) */
    uint16_t *probes)                   /* (num_tables, width) */
{
    if (bits < 1 || bits > 16 || num_tables < 0 || width < 1)
        return -1;
    int64_t most = 0;
    for (int64_t t = 0; t < num_tables; t++) {
        const int64_t lo = shells[2 * t], hi = shells[2 * t + 1];
        if (lo < 0 || lo > hi || hi > width)
            return -1;
        if (hi - lo > most)
            most = hi - lo;
    }
    struct keyed small[SMALL_SHELL];
    struct keyed *const key = most <= SMALL_SHELL ? small : malloc(most * sizeof *key);
    if (key == NULL)
        return -2;
    for (int64_t t = 0; t < num_tables; t++) {
        const uint16_t code = codes[t];
        uint16_t *const row = probes + t * width;
        for (int64_t j = 0; j < width; j++)
            row[j] = code ^ masks[j];
        const int64_t lo = shells[2 * t], s = shells[2 * t + 1] - lo;
        if (s < 2)
            continue;
        double margin[16] = {0}; /* a mask bit past ``bits`` adds nothing */
        for (int64_t j = 0; j < bits; j++)
            margin[j] = fabsf(dots[t * bits + j]);
        for (int64_t i = 0; i < s; i++) {
            double sum = 0.0;
            for (uint32_t m = masks[lo + i]; m; m &= m - 1)
                sum += margin[__builtin_ctz(m)];
            key[i] = (struct keyed){sum < INFINITY ? sum : INFINITY, lo + i};
        }
        int32_t rank[SMALL_SHELL];
        if (s <= SMALL_SHELL && rank_small(key, s, rank)) {
            for (int64_t i = 0; i < s; i++)
                row[lo + rank[i]] = code ^ masks[lo + i];
        } else {
            qsort(key, s, sizeof *key, by_margin);
            for (int64_t i = 0; i < s; i++)
                row[lo + i] = code ^ masks[key[i].at];
        }
    }
    if (key != small)
        free(key);
    return 0;
}

/* Bucket the records of table ``table`` by their codes, in one counting
 * sort, and number them in table 0's bucket order when it is table 0;
 * hashing.insert_all sorts tables 0..num_tables-1 in turn.
 *
 * On entry, row t of ``members`` holds table t's codes of records 0..n-1,
 * n uint16 values in the upper half of its 4n bytes (hashing.insert_all
 * hashes them there); a later table's sort needs the ``order`` table 0's
 * gave. For table 0, ``order`` (n values) gets the records grouped by its
 * code and ascending within a bucket, the order a stable argsort of table
 * 0's codes gives; internal id i is record order[i], and row 0 of
 * ``members`` becomes 0..n-1. Row t > 0 gets the n internal ids grouped
 * by table t's code, ascending within a bucket. The table's row of
 * ``bitmap`` and the first k + 1 values of ``offsets`` get its directory,
 * the bitmap and its piece of offsets (directory, above). The steps:
 *   load: the codes go to ``scratch`` (n uint16), since the ids overwrite
 *     them; table 0 copies its row, and table t > 0 gathers code
 *     codes_t[order[i]] of internal id i, so the ids it scatters are
 *     internal ones;
 *   count: offsets[c + 1] counts the records of code c;
 *   prefix: an exclusive running sum turns offsets[c + 1] into the start
 *     of bucket c;
 *   scatter: ids in ascending order go to out[offsets[c + 1]], which then
 *     advances, so it ends as the stop of bucket c. ``out`` is ``order``
 *     for table 0 and the table's row otherwise;
 *   directory: a backward pass turns the stops back into counts, and
 *     those become the directory, in place.
 * No memory is used beyond the outputs, one table's codes and one table's
 * 2**bits + 1 offsets, which every table reuses.
 *
 * Every code is checked against 2**bits in the count pass, before it is
 * used as an index; the scatter reads the same scratch again. Returns
 * k + 1, the length of the table's piece, or -1 for a code >= 2**bits,
 * bits outside [1, 16], n outside [0, INT32_MAX] or a table outside
 * [0, num_tables); the outputs are then partly written.
 */
int64_t boi_bucket_sort(
    int64_t num_tables, int64_t table, int64_t bits, int64_t n,
    uint64_t *bitmap,                   /* (num_tables, WORDS(bits)) */
    int32_t *offsets,                   /* (2**bits + 1,) */
    int32_t *members,                   /* (num_tables, n) */
    int32_t *order,                     /* (n,) */
    uint16_t *scratch)                  /* (n,) */
{
    if (bits < 1 || bits > 16 || n < 0 || n > INT32_MAX || table < 0
        || table >= num_tables)
        return -1;
    const int64_t num_buckets = (int64_t)1 << bits;
    int32_t *const row = members + table * n;
    int32_t *const next = offsets + 1;
    const uint16_t *const codes = (const uint16_t *)row + n;
    if (table == 0) {
        memcpy(scratch, codes, 2 * n);
    } else {
        for (int64_t i = 0; i < n; i++)
            scratch[i] = codes[order[i]];
    }
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
    int32_t *const out = table == 0 ? order : row;
    for (int64_t i = 0; i < n; i++)
        out[next[scratch[i]]++] = (int32_t)i;
    if (table == 0) {
        for (int64_t i = 0; i < n; i++)
            row[i] = (int32_t)i;
    }
    for (int64_t c = num_buckets - 1; c > 0; c--)
        next[c] -= next[c - 1];
    return directory(bits, offsets, bitmap + table * WORDS(bits));
}

/* The set bits of one table's WORDS(bits) words of bitmap, or -2 when one
 * is set for a code at or past 2**bits. */
static int64_t table_buckets(int64_t bits, const uint64_t *row)
{
    uint64_t past = 0;
    int64_t k = 0;
    for (int64_t w = 0; w < WORDS(bits); w++) {
        past |= row[w] & PAST(bits);
        k += popcount(row[w]);
    }
    return past ? -2 : k;
}

/* The number of non-empty buckets of table ``table`` of a snapshot, the
 * set bits of its row of ``bitmap``, so that data_io.load_index knows how
 * many bucket sizes its record holds: -2 when a bit is set for a code at
 * or past 2**bits, and -1 for bits outside [1, 16] or a table outside
 * [0, num_tables). */
int64_t boi_table_buckets(
    int64_t num_tables, int64_t bits,
    const uint64_t *bitmap,             /* (num_tables, WORDS(bits)) */
    int64_t table)
{
    if (bits < 1 || bits > 16 || table < 0 || table >= num_tables)
        return -1;
    return table_buckets(bits, bitmap + table * WORDS(bits));
}

/* Check table ``table`` of a snapshot, as data_io.load_index reads its
 * record straight into the index's arrays, in one pass over its bucket
 * sizes and one over its ids, and turn the sizes into the table's piece of
 * offsets in place.
 *
 * Row ``table`` of ``bitmap`` marks the table's k non-empty buckets, and
 * offsets[at + 1 .. at + k] holds their sizes in code order, read as
 * uint32. Every size must be at least 1, and their sum, taken as uint64 so
 * that no size can wrap it, must be n; then offsets[at .. at + k] become
 * the table's piece of offsets (directory, above): the start of each
 * bucket, then n. Start i, the sum of sizes 0..i-1, is written over size
 * i - 1, which has been read, so no scratch is needed. Row
 * ``table`` of ``members`` is the record's id row, read as uint32: every
 * id must be below n, and their wrapping uint32 sum must be n(n - 1)/2 mod
 * 2**32, the sum of 0..n-1, which any single flipped bit of a permutation
 * changes by a power of two below 2**32. The id pass has no branch and no
 * compare, so it vectorises (a compare-select max did not, under the
 * default flags).
 *
 * Returns k + 1, the length of the table's piece, when the record passes;
 * otherwise the first check that fails: -2 a bit set past 2**bits, -3 a
 * size of 0, -4 sizes that do not sum to n (``offsets`` is unchanged after
 * these three), -5 an id of n or more, -6 ids whose sum is wrong; or -1
 * for bits outside [1, 16], n outside [0, INT32_MAX], a table outside
 * [0, num_tables) or a piece that does not fit between ``at`` and the end
 * of the num_offsets offsets.
 */
int64_t boi_check_table(
    int64_t num_tables, int64_t bits, int64_t n,
    const uint64_t *bitmap,             /* (num_tables, WORDS(bits)) */
    int32_t *offsets, int64_t num_offsets, /* (num_offsets,) */
    const uint32_t *members,            /* (num_tables, n) */
    int64_t table, int64_t at)
{
    if (bits < 1 || bits > 16 || n < 0 || n > INT32_MAX || table < 0
        || table >= num_tables)
        return -1;
    const int64_t k = table_buckets(bits, bitmap + table * WORDS(bits));
    if (k < 0)
        return k;
    if (at < 0 || at + k >= num_offsets)
        return -1;
    int32_t *const piece = offsets + at;
    const uint32_t *const sizes = (const uint32_t *)piece + 1;
    uint64_t total = 0;
    uint32_t empty = 0;
    for (int64_t i = 0; i < k; i++) {
        total += sizes[i];
        empty |= sizes[i] == 0;
    }
    if (empty)
        return -3;
    if (total != (uint64_t)n)
        return -4;
    /* so every size is at most n, and int32 holds every start */
    int32_t start = 0;
    for (int64_t i = 0; i < k; i++) {
        const int32_t size = (int32_t)sizes[i];
        piece[i] = start;
        start += size;
    }
    piece[k] = start;
    /* an id v is below n <= 2**31 - 1 iff neither v nor (n - 1) - v,
     * wrapped, has its top bit set: two ORs instead of an unsigned compare,
     * which SSE2 lacks */
    const uint32_t *const ids = members + table * n;
    const uint32_t last = (uint32_t)n - 1;
    uint32_t bad = 0, sum = 0;
    for (int64_t i = 0; i < n; i++) {
        bad |= ids[i] | (last - ids[i]);
        sum += ids[i];
    }
    if (bad >> 31)
        return -5;
    return sum == (uint32_t)((uint64_t)n * (uint64_t)(n - 1) / 2) ? k + 1 : -6;
}

/* Check the directory of num_tables tables of n records (this file's
 * header comment) and make its rank: no bit set for a code at or past
 * 2**bits, and each table's piece of offsets rising strictly from 0 to n,
 * one offset a set bit and then n, the pieces filling the num_offsets
 * offsets exactly. ``rank`` gets each word's position in ``offsets``, so
 * this is the one loop that counts the pieces. Returns 0 when the
 * directory holds, else the first fault found: 1 a bit past 2**bits, 2 a
 * count of offsets, 3 offsets that do not rise from 0 to n; or -1 for
 * bits outside [1, 16], n outside [0, INT32_MAX] or more than INT32_MAX
 * offsets, which int32 ranks cannot reach. ``rank`` is then partly
 * written. Nothing is allocated.
 */
int64_t boi_check_directory(
    int64_t num_tables, int64_t bits, int64_t n,
    const uint64_t *bitmap,             /* (num_tables, WORDS(bits)) */
    const int32_t *offsets, int64_t num_offsets, /* (num_offsets,) */
    int32_t *rank)                      /* (num_tables, WORDS(bits)) */
{
    if (bits < 1 || bits > 16 || n < 0 || n > INT32_MAX || num_tables < 0
        || num_offsets > INT32_MAX)
        return -1;
    const int64_t words = WORDS(bits);
    const uint64_t past = PAST(bits);
    int64_t at = 0; /* the position of the next non-empty bucket */
    for (int64_t t = 0; t < num_tables; t++) {
        const int64_t base = at; /* where table t's piece begins */
        for (int64_t w = 0; w < words; w++) {
            const uint64_t word = bitmap[t * words + w];
            if (word & past)
                return 1;
            rank[t * words + w] = (int32_t)at;
            at += popcount(word);
        }
        if (at >= num_offsets)
            return 2;
        const int32_t *const piece = offsets + base;
        const int64_t k = at - base;
        if (piece[0] != 0 || piece[k] != n)
            return 3;
        for (int64_t i = 0; i < k; i++) {
            if (piece[i] >= piece[i + 1])
                return 3;
        }
        at++; /* past the table's n */
    }
    return at == num_offsets ? 0 : 2;
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
