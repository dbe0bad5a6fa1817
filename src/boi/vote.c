/* The compiled loops of boi: the probe rows of a query, ordered by its
 * margins, the weighted gather+vote of a query over the probed buckets of
 * every hash table, the pass that selects its shortlist's set from its
 * votes, the exact distances that re-rank the shortlist and make the
 * brute-force oracle, the counting sort that builds the buckets, the two
 * checks of a snapshot's table record as it is loaded, the check of the
 * tables' bucket directory, the sign filter that turns dot products into
 * codes, and the one call that runs a query's stages in turn, from its dot
 * products to its ranked answer.
 *
 * Buckets hold internal ids: record i of the index is internal id j where
 * order[j] = i, and ``order`` lists the records in table 0's bucket order
 * (boi_bucket_sort). So table 0's buckets are runs of consecutive ids, and
 * records that share a bucket of table 0, which tend to share buckets of
 * the other tables too, have nearby ids there as well.
 *
 * The ids are kept in pages of PAGE = 2**16, as Roaring bitmaps split the
 * id space into chunks of 2**16 (Lemire et al., Softw. Pract. Exp. 2016):
 * n records make PAGES(n) = max(1, ceil(n / 2**16)) pages, and page p holds
 * the ids [p * 2**16, min(n, (p + 1) * 2**16)), PAGE_SIZE(n, p) of them.
 * Every table holds every record once, so page p of each table fills the
 * same positions of its row of ``members``, from p * 2**16 to the page's
 * end, and no bound of a page is stored. Within a page the ids are grouped
 * by code and ascend within a bucket, and each is stored as its 16 low
 * bits, id - p * 2**16, a uint16: half the bytes of an int32 id, in the
 * index and in what the gather+vote streams.
 *
 * A page of a table, a (table, page) piece, finds its buckets through a
 * directory of its non-empty buckets only, a rank directory over a bitmap
 * (Jacobson, FOCS 1989), as if it were a table of its page's records. A
 * b-bit table has 2**b codes, but at b = 16 over the benchmark's 100k
 * records only about 160 of them hold a record, so a dense row of 2**b + 1
 * offsets (256 KiB a table) would mostly describe empty buckets. Per
 * (table, page), in words of 64 codes (WORDS(bits) of them, one when b < 6;
 * the words of (t, p) are row t * PAGES(n) + p of ``bitmap`` and ``rank``):
 *   bitmap: bit c % 64 of word c / 64 is set iff bucket c holds a record
 *     of the page; no bit is set for a code at or past 2**b;
 *   offsets: the piece, the position in the table's row of ``members`` of
 *     each of its k non-empty buckets in code order, then the page's end;
 *     so a piece rises strictly from its page's start to its page's end.
 *     The pieces follow each other in one array, table by table and page
 *     by page within a table, so the piece of (t, p) begins after the k + 1
 *     values of every earlier one;
 *   rank: rank[w] is the position in ``offsets`` of the piece's first
 *     non-empty bucket at or after word w: where the piece begins, plus
 *     the set bits of its words 0..w-1. It is derived from the bitmap
 *     alone, by boi_check_directory, the one place that counts positions.
 * When bit c is set, bucket c of page p holds the ids p * 2**16 +
 * members[t, offsets[i]:offsets[i + 1]], i = rank[c / 64] + popcount(the
 * word's bits below c % 64). Codes and ids are uint16 and offsets int32, as
 * in vote.CODE_DTYPE, vote.ID_DTYPE and vote.OFFSET_DTYPE, so bits is at
 * most 16 (vote.MAX_HASH_BITS).
 *
 * The gather+vote (gather_vote) goes page by page. In page p, table t
 * probes the first budgets[t] + 1 codes of its row of ``probes``: every id
 * of the page in the bucket of the code c at position j gains units[j]
 * votes. A code whose bit is clear is skipped without reading the offsets.
 * The kernel only adds the votes; index.weight sets them
 * (BoiIndex.plan.units). The votes are in internal order, in an (n,) array
 * that each querying thread owns and keeps all zero between its queries
 * (vote.QueryScratch); the touched pass takes them out again.
 *
 * The vote is a cache-blocked scatter (Boncz, Manegold and Kersten, VLDB
 * 1999). Each probed bucket scatters its ids across a page's votes, which
 * at 2**16 ids are 256 KiB, far larger than L1. So the kernel works in two
 * steps, a page at a time:
 *   collect: each non-empty probed bucket of the page becomes a range
 *     (next, stop, vote) in a batch of BATCH ranges on the stack, so a
 *     query that probes the whole code space needs no heap and no more
 *     memory;
 *   sweep: when the batch is full, and once at the end of the page, the
 *     page's ids are walked in tiles of TILE ids, eight to a full page.
 *     Every live range adds its vote to its ids below the tile's end and
 *     resumes there at the next tile, in one loop, ``for (; p < stop; p++)
 *     { id = *p; if (id >= end) break; ... }``. Ids ascend within a
 *     bucket, so each range is read once in all, and a tile's votes stay
 *     in L1 while every range writes into them. A range of nearby internal
 *     ids ends within few tiles, so a sweep starts fewer member streams
 *     than over ids in arrival order.
 * The uint16 ids halve the index and the bytes the loop streams. In a
 * prototype two variants of the page loop were slower, by 3 to 8%: ranges
 * split at the page edges but every page's ranges live in every tile, and
 * two batches held apart in thread-local storage, which overflowed L1.
 * TILE is 8192 ids, 32 KiB of int32 votes, which leaves room in a 48 KiB
 * L1d for the ranges' member streams. Timing the kernel alone on the
 * benchmark's data, 4096 and 16384 were slower at b=8 and b=16, and 12288
 * no faster. BATCH bounds the stack at 24 KiB of ranges; a sweep over a
 * full batch visits each range at most PAGE / TILE times, which is small
 * beside the ids it adds.
 *
 * Pages cut each bucket into one range a page, P short ranges 128 KiB
 * apart in its row, and each page looks each probed code up again: the
 * memory streams of a range restart P times, and each lookup of a page
 * misses the cache. So the collect step asks for what it reads next
 * before it reads it: the first HEAD ids of each range it adds to the
 * batch, read when the batch is swept, and each probed code's words of
 * the bitmap and rank in the next page, read when that page is collected.
 * Timed in one process on a 2-core Xeon, alternating with the int32
 * kernel of the same tiles (before pages) query by query, this
 * gather+vote took, at b=8 and b=16:
 *   the benchmark's 100k records (2 pages): 0.85 and 0.85 of its time,
 *     0.87 and 0.89 without the two prefetches;
 *   1M records of 32 overlapping clusters, dim 128 (16 pages): 0.99 and
 *     1.68, against 1.17 and 1.97 without them.
 * The int32 kernel built with the same loop alignment (HOT, below) took
 * as long as this one at 100k, within 2%: there the uint16 ids saved
 * memory, not time.
 *
 * Every value read from an array is checked before it is used as an index,
 * so a corrupt table returns -1 instead of reading or writing out of
 * bounds: a code past 2**b, a bucket position outside the offsets, or
 * offsets that decrease or leave their page. hashing.ProjectionTable
 * checks the whole directory and makes the rank from it
 * (boi_check_directory), so a rank that disagrees with the bitmap, or a bit
 * past 2**b, which would move a bucket within the offsets, never reaches
 * the kernel from there. A stored id at or past its page's size is below
 * no tile's end, so it leaves its range open after the page's last tile
 * (whose end is the page's size), and an open range means a corrupt table.
 * Ids out of order within a bucket are still counted exactly, in a later
 * tile. Otherwise the return value is the number of (id, vote) pairs
 * scanned. Sums are exact integers, so their order does not matter: every
 * vote and count is the one a single pass over whole ids would give.
 *
 * The touched pass (touched_votes) hands the shortlist only the votes a
 * query touched, as (record id, vote) pairs, when they lie in few 64-id
 * blocks of the votes, and zeroes them as it goes; given a shortlist size,
 * it then keeps only the pairs of the shortlist's set, and selects that set
 * from dense votes too, from the few a sampled floor lets through. Either
 * way one histogram cut bounds the set from below and one heap chooses
 * among the votes at the cut (their own comments, below).
 *
 * The probe rows (probe_rows) are what the gather+vote probes: each
 * table's query code XOR the masks of its probe plan, with the table's
 * last, partly probed shell ordered by the query's margins (its own
 * comment, below).
 *
 * Seven entry points are exported, each with one caller in vote.py:
 *   boi_bucket_sort builds one table of the index: hashing.insert_all
 *     hashed the codes into ``members``, and one counting sort a page
 *     turns them into the internal ids of every bucket, ascending within a
 *     bucket, and the table's pieces of the directory; table 0 first sorts
 *     every record once, which gives ``order``;
 *   boi_table_buckets and boi_check_table count the non-empty buckets of
 *     one (table, page) of a snapshot and check its bucket sizes and ids,
 *     turning the sizes into its piece of offsets in place, for
 *     data_io.load_index;
 *   boi_check_directory checks a whole directory and makes its rank, for
 *     hashing.ProjectionTable;
 *   boi_hash_codes turns the float32 dot products of a build's matrix
 *     product (hashing.hash_codes_all) into codes, recomputing in float64
 *     each sign the float32 error bound cannot decide;
 *   boi_nearest ranks every row of an array by the exact distance and
 *     keeps the k nearest, for the oracle, core.brute_force_query, and for
 *     core.pairwise_distances, which keeps every row; it measures only the
 *     rows a float32 filter cannot prove too far;
 *   boi_query runs a query's stages in one fixed order: its dot products
 *     and the sign filter, the probe rows, the gather+vote, the touched
 *     pass with its selection and the re-rank by exact distance, through
 *     the same filter as boi_nearest, on the addresses and sizes of one
 *     thread's scratch, one probe plan and the base vectors, bound once in
 *     an int64 block. A query runs all five in one call; index.accumulate
 *     runs the first four one call at a time, so that the benchmark can
 *     time each.
 * Each has its own comment below.
 */
#include <float.h> /* FLT_MAX */
#include <math.h> /* INFINITY, fabsf and sqrt, which need no libm (sqrt
                   * under -fno-math-errno) */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TILE 8192
#define BATCH 1024
/* the ids at the head of a range that gather_vote asks for */
#define HEAD 128
/* the ids of a page, and the pages of n records, at least one */
#define PAGE_BITS 16
#define PAGE ((int64_t)1 << PAGE_BITS)
#define PAGES(n) ((n) > PAGE ? ((n) + PAGE - 1) >> PAGE_BITS : (int64_t)1)
/* the ids of page p of n records: PAGE, less in the last page */
#define PAGE_SIZE(n, p) ((n) - (p) * PAGE < PAGE ? (n) - (p) * PAGE : PAGE)
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

/* Turn one page's bucket counts, counts[0..2**bits) (each at least 0,
 * summing to at most PAGE), into its directory: ``bitmap`` gets the page's
 * WORDS(bits) words, and piece[0..k] its piece of offsets, ``first`` plus
 * the start of each of its k non-empty buckets in code order, then
 * ``first`` plus the sum; returns k + 1, the piece's length. The count of
 * each non-empty bucket becomes its start within the page, where its
 * first id goes; an empty bucket's 0 is left. A word's counts are ORed
 * first, which vectorises, so an empty word costs no more; only the set
 * bits of the others are visited in order, so no pass runs over every
 * code. */
static int64_t directory(
    int64_t bits, int32_t *counts, int64_t first, uint64_t *bitmap, int32_t *piece)
{
    const int64_t num_buckets = (int64_t)1 << bits;
    const int64_t per_word = num_buckets < 64 ? num_buckets : 64;
    int32_t start = 0;
    int64_t k = 0;
    for (int64_t w = 0; w < WORDS(bits); w++) {
        int32_t *const here = counts + 64 * w;
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
            int32_t *const count = here + __builtin_ctzll(left);
            piece[k++] = (int32_t)(first + start);
            const int32_t size = *count;
            *count = start;
            start += size;
        }
    }
    piece[k] = (int32_t)(first + start);
    return k + 1;
}

struct range {
    const uint16_t *next, *stop;
    uint32_t vote;
};

/* HOT starts a function on a 64-byte boundary, so the speed of its inner
 * loops does not hang on the code placed before it. Without it, the three
 * library calls the probe rows added to the PLT moved sweep 48 bytes and
 * slowed the b=8 gather+vote from 0.37 to 0.51 ms a query (the benchmark's
 * seed-1 data); aligned, it kept its speed. Code within a function moves
 * too: once sweep read uint16 ids, its inner loop straddled a 64-byte
 * boundary and the gather+vote ran 10% slower than the int32 kernel's, so
 * vote.py also builds with -falign-loops=64, which starts every loop on
 * such a boundary. */
#define HOT __attribute__((aligned(64)))

/* Add every range of the batch to a page's ``size`` votes, tile by tile;
 * -1 if one stays open after the last tile. */
HOT static int sweep(struct range *batch, int64_t live, int64_t size, int32_t *votes)
{
    for (int64_t lo = 0; lo < size && live > 0; lo += TILE) {
        const uint32_t end = (uint32_t)(size - lo > TILE ? lo + TILE : size);
        for (int64_t k = 0; k < live;) {
            const uint16_t *p = batch[k].next, *const stop = batch[k].stop;
            const uint32_t vote = batch[k].vote;
            for (; p < stop; p++) {
                const uint32_t id = *p;
                if (id >= end)
                    break;
                /* unsigned, so even a corrupt table cannot overflow */
                votes[id] = (int32_t)((uint32_t)votes[id] + vote);
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

HOT static int64_t gather_vote(
    int64_t num_tables, int64_t bits, int64_t n,
    const uint64_t *bitmap,             /* (num_tables, PAGES(n), WORDS(bits)) */
    const int32_t *rank,                /* (num_tables, PAGES(n), WORDS(bits)) */
    const int32_t *offsets, int64_t num_offsets, /* (num_offsets,) */
    const uint16_t *members,            /* (num_tables, n) */
    const uint16_t *probes, int64_t width, /* (num_tables, width) */
    const uint32_t *units,              /* (width,) */
    const int64_t *budgets,             /* (num_tables,) */
    int32_t *votes)                     /* (n,) */
{
    /* ids and offsets are int32 (hashing.check_record_count) */
    if (bits < 1 || bits > 16 || n > INT32_MAX)
        return -1;
    const int64_t num_buckets = (int64_t)1 << bits, words = WORDS(bits), pages = PAGES(n);
    struct range batch[BATCH];
    int64_t scanned = 0;
    for (int64_t page = 0; page < pages; page++) {
        const int64_t first = page * PAGE, size = PAGE_SIZE(n, page);
        int64_t live = 0;
        for (int64_t t = 0; t < num_tables; t++) {
            const int64_t count = budgets[t] + 1;
            if (count < 1 || count > width)
                return -1;
            const uint64_t *const bm = bitmap + (t * pages + page) * words;
            const int32_t *const rk = rank + (t * pages + page) * words;
            const uint16_t *const row = members + t * n;
            const uint16_t *const codes = probes + t * width;
            for (int64_t j = 0; j < count; j++) {
                const int64_t c = codes[j];
                if (c >= num_buckets)
                    return -1;
                if (page + 1 < pages) { /* the next page's words of the code */
                    __builtin_prefetch(bm + words + (c >> 6));
                    __builtin_prefetch(rk + words + (c >> 6));
                }
                const uint64_t word = bm[c >> 6];
                const int64_t bit = c & 63;
                if (!(word >> bit & 1))
                    continue; /* an empty bucket */
                const int64_t at = rk[c >> 6] + popcount(word & ((UINT64_C(1) << bit) - 1));
                if (at < 0 || at + 1 >= num_offsets)
                    return -1;
                const int64_t start = offsets[at], stop = offsets[at + 1];
                if (start < first || start > stop || stop > first + size)
                    return -1;
                if (start == stop)
                    continue;
                for (int64_t i = start; i < stop && i < start + HEAD; i += 32)
                    __builtin_prefetch(row + i); /* a 64-byte line of ids */
                batch[live++] = (struct range){row + start, row + stop, units[j]};
                scanned += stop - start;
                if (live == BATCH) {
                    if (sweep(batch, live, size, votes + first) < 0)
                        return -1;
                    live = 0;
                }
            }
        }
        if (sweep(batch, live, size, votes + first) < 0)
            return -1;
    }
    return scanned;
}

/* The votes a query touched, taken out for its shortlist
 * (index.shortlist), so that the shortlist reads about m values instead of
 * n: at b = 16 over the benchmark's 100k records a query touches about 4k
 * ids, in about 110 of the 1,563 blocks of 64 ids.
 *
 * One pass over the n votes (int32, internal order) counts the blocks of
 * 64 ids that hold a non-zero vote, the last block holding n % 64 when
 * that is not 0. It stops once more than most = blocks / TOUCHED_SHARE
 * (a quarter) of them do, after reading only as many blocks as that count
 * allows: the votes are then dense, as at b = 8, where nearly every block
 * holds one. Otherwise each
 * non-zero vote, in ascending internal id j, becomes one pair, ids[i] =
 * order[j] (the record id) and weights[i] = votes[j], each of its blocks
 * is zeroed once read, and the return value is m, the number of pairs;
 * the votes are then all zero. ``ids`` and ``weights`` hold ``capacity``
 * pairs, at least 64 * most (vote.touched_capacity), so m never exceeds
 * it.
 *
 * Given no shortlist size (0), dense votes are left as they are and the
 * return value is -1. Given one, the pairs are cut to the shortlist's set
 * (shortlist_touched, below) and the return value is its size; dense
 * votes go to dense_shortlist (below), which selects the same set from
 * them, by the same cut and heap, and zeroes them, so every query leaves
 * its votes zero. The size must be at most ``capacity``: vote.QueryScratch
 * passes min(size, n) and grows ``ids`` and ``weights`` to it.
 *
 * The first pass keeps the list of non-empty blocks in the last most
 * entries of ``ids``, from ids[capacity - most], so no other memory is
 * needed. The pairs of listed block i (from 0) are written below 64 * (i
 * + 1), and the entries of the blocks after it lie at or above capacity -
 * most + i + 1 >= 63 * most + i + 1, which is at least 64 * (i + 1) while
 * i < most: no entry is overwritten before it is read. Each pair is
 * written whatever the vote and kept only when it is non-zero, so the copy
 * has no branch on the votes; a write lands below the number of ids read
 * so far in the listed blocks, the current one included, so never at or
 * past capacity. Returns -2 for n outside [0, INT32_MAX], a capacity below
 * 64 * most, or a shortlist size outside [0, capacity].
 */
#define BLOCK 64

static inline uint32_t any_vote(const int32_t *votes, int64_t count)
{
    uint32_t any = 0;
    for (int64_t j = 0; j < count; j++)
        any |= (uint32_t)votes[j];
    return any;
}

/* Move the pairs whose vote is at least ``least`` to the front of the m
 * pairs, in their order; return how many there are. A pair is written
 * whatever its vote and kept only when it qualifies, so the pass has no
 * branch on the votes, and each write lands at or below the pair read. */
static int64_t keep_at_least(int64_t m, int32_t *ids, int32_t *weights, int32_t least)
{
    int64_t kept = 0;
    for (int64_t i = 0; i < m; i++) {
        const int32_t vote = weights[i];
        ids[kept] = ids[i];
        weights[kept] = vote;
        kept += vote >= least;
    }
    return kept;
}

/* A pair's place in the shortlist as one key: the higher vote first, then
 * the lower record id (ids are record ids, in [0, INT32_MAX)). */
static inline uint64_t shortlist_key(const int32_t *ids, const int32_t *weights, int64_t i)
{
    return (uint64_t)(uint32_t)weights[i] << 32 | (uint32_t)~(uint32_t)ids[i];
}

static inline void swap_pairs(int32_t *ids, int32_t *weights, int64_t i, int64_t j)
{
    const int32_t id = ids[i], vote = weights[i];
    ids[i] = ids[j];
    weights[i] = weights[j];
    ids[j] = id;
    weights[j] = vote;
}

/* Every shortlist's set is chosen in one way, from touched pairs and from
 * dense votes alike: one histogram cut (cut) bounds it from below, and one
 * min-heap on shortlist_key (sift_down) chooses among the votes the cut
 * cannot tell apart, by vote and then record id.
 *
 * The cut of ``want`` among the positive votes of votes[0], votes[step],
 * votes[2 * step], ... below votes[count]: they are counted in BINS bins of
 * vote >> shift, the smallest shift that puts the top vote in the last
 * bins, and the bins are walked down from the top until they hold
 * ``want``. The cut's bin holds the votes in [least, next), ``above`` of
 * the counted votes lie in the bins above it, and least is at least 1.
 * When the positive votes are fewer than ``want``, the walk ends in the
 * lowest bin, so every positive vote is at or above least. The counts are
 * on the stack, so the cut allocates nothing. */
#define BINS 2048

struct bin {
    int64_t least, next, above;
};

static struct bin cut(const int32_t *votes, int64_t count, int64_t step, int64_t want)
{
    int32_t top = 0;
    for (int64_t i = 0; i < count; i += step)
        top = votes[i] > top ? votes[i] : top;
    int shift = 0;
    while (top >> shift >= BINS)
        shift++;
    uint32_t counts[BINS];
    memset(counts, 0, sizeof counts);
    for (int64_t i = 0; i < count; i += step) {
        if (votes[i] > 0)
            counts[votes[i] >> shift]++;
    }
    int64_t bin = top >> shift, above = 0;
    while (above + counts[bin] < want && bin > 0)
        above += counts[bin--];
    return (struct bin){bin > 0 ? bin << shift : 1, (bin + 1) << shift, above};
}

/* Sink the pair at ``at`` of a min-heap of ``size`` pairs on
 * shortlist_key until neither child's key is lower. */
static void sift_down(int32_t *ids, int32_t *weights, int64_t size, int64_t at)
{
    for (;;) {
        const int64_t left = 2 * at + 1, right = left + 1;
        int64_t low = at;
        if (left < size && shortlist_key(ids, weights, left) < shortlist_key(ids, weights, low))
            low = left;
        if (right < size && shortlist_key(ids, weights, right) < shortlist_key(ids, weights, low))
            low = right;
        if (low == at)
            return;
        swap_pairs(ids, weights, at, low);
        at = low;
    }
}

/* The shortlist's set of the m touched pairs, moved to the front of
 * ``ids`` and ``weights`` in no order; returns its size. It is the set
 * index.shortlist keeps: the ``size`` pairs of highest vote, those tied at
 * the cut by lowest record id, none whose vote is not positive, and all
 * the positive ones when there are at most ``size``.
 *
 * The cut of ``size`` among the m votes finds its bin, and one pass keeps
 * the pairs in and above it (keep_at_least). Only when they are more than
 * ``size`` does a second pass move the pairs above the bin to the front,
 * and the heap then chooses the slots left among the pairs of the bin: the
 * first of them fill it, and each later one whose key is higher than the
 * root's takes the root's place. At b = 16 over the benchmark's data the
 * votes are multiples of 2**15, so each bin holds one vote value, and the
 * heap only picks the lowest ids of the tie at the cut. */
static int64_t shortlist_touched(int64_t m, int32_t *ids, int32_t *weights, int64_t size)
{
    if (m <= size)
        return keep_at_least(m, ids, weights, 1);
    const struct bin bin = cut(weights, m, 1, size);
    const int64_t kept = keep_at_least(m, ids, weights, (int32_t)bin.least);
    if (kept <= size)
        return kept;
    int64_t front = 0;
    for (int64_t i = 0; i < kept; i++) {
        if (weights[i] >= bin.next)
            swap_pairs(ids, weights, i, front++);
    }
    int32_t *const tied = ids + bin.above, *const votes = weights + bin.above;
    const int64_t slots = size - bin.above;
    for (int64_t i = slots / 2; i-- > 0;)
        sift_down(tied, votes, slots, i);
    for (int64_t i = slots; i < kept - bin.above; i++) {
        if (shortlist_key(tied, votes, i) > shortlist_key(tied, votes, 0)) {
            tied[0] = tied[i];
            votes[0] = votes[i];
            sift_down(tied, votes, slots, 0);
        }
    }
    return size;
}

/* The shortlist's set of the n dense votes, selected from the few that
 * can hold it: a floor is set from a sample, the votes at or above it are
 * taken out as pairs and shortlist_touched selects among them. On the
 * benchmark's b = 8 data 1,100 to 1,700 of the 100k votes reach the floor
 * at size 250.
 *
 * The floor: the least of the cut of AIM * size / SAMPLE among the 1-in-
 * SAMPLE votes votes[0], votes[SAMPLE], ..., the lower edge of its bin and
 * at least 1. The collect: each chunk of BLOCK votes is skipped when every
 * vote in it lies below the floor, which one AND over the sign bits of
 * vote - floor, in uint32, tells without a branch (a wrapped negative vote
 * may read as at or above it; the copy below does not keep it). Every other
 * chunk is copied as in the touched pass, each pair kept when its vote is
 * at or above the floor. The pairs then hold every vote at or above the
 * floor, so when there are ``size`` or more of them, or the floor is 1,
 * they hold the shortlist's set, and one memset zeroes the votes.
 *
 * When they are fewer than ``size`` above a floor of 2 or more, or a chunk
 * would not fit in the ``capacity`` pairs, the sample misled: every
 * positive vote's pair streams through the same heap instead, the first
 * ``size`` filling it, which needs no room past the ``size`` slots,
 * whatever the ties, and costs O(n + r log size) for r replacements; then
 * the memset. */
#define SAMPLE 16
#define AIM 4

static int64_t dense_shortlist(
    int64_t n, int32_t *votes, const int32_t *order, int64_t capacity, int32_t *ids,
    int32_t *weights, int64_t size)
{
    const int64_t want = (AIM * size + SAMPLE - 1) / SAMPLE;
    const int32_t least = (int32_t)cut(votes, n, SAMPLE, want).least;
    int64_t m = 0, fits = 1;
    for (int64_t lo = 0; lo < n; lo += BLOCK) {
        const int64_t hi = lo + BLOCK < n ? lo + BLOCK : n;
        uint32_t below = ~UINT32_C(0);
        for (int64_t j = lo; j < hi; j++)
            below &= (uint32_t)votes[j] - (uint32_t)least;
        if (below >> 31)
            continue;
        if (m + (hi - lo) > capacity) {
            fits = 0;
            break;
        }
        for (int64_t j = lo; j < hi; j++) {
            const int32_t vote = votes[j];
            ids[m] = order[j];
            weights[m] = vote;
            m += vote >= least;
        }
    }
    if (fits && (m >= size || least == 1)) {
        m = shortlist_touched(m, ids, weights, size);
    } else {
        m = 0;
        for (int64_t j = 0; j < n; j++) {
            const int32_t vote = votes[j];
            if (vote <= 0)
                continue;
            if (m < size) {
                ids[m] = order[j];
                weights[m] = vote;
                if (++m == size) {
                    for (int64_t i = size / 2; i-- > 0;)
                        sift_down(ids, weights, size, i);
                }
            } else if (((uint64_t)(uint32_t)vote << 32 | (uint32_t)~(uint32_t)order[j])
                       > shortlist_key(ids, weights, 0)) {
                ids[0] = order[j];
                weights[0] = vote;
                sift_down(ids, weights, size, 0);
            }
        }
    }
    memset(votes, 0, (size_t)n * sizeof *votes);
    return m;
}

/* A share of 1/TOUCHED_SHARE of the blocks is the most the touched pass
 * takes out; vote.py reads it from here */
#define TOUCHED_SHARE 4
const int64_t boi_touched_share = TOUCHED_SHARE;

static int64_t touched_votes(
    int64_t n,
    int32_t *votes,                     /* (n,) */
    const int32_t *order,               /* (n,) */
    int64_t capacity,
    int32_t *ids,                       /* (capacity,) */
    int32_t *weights,                   /* (capacity,) */
    int64_t shortlist_size)
{
    if (n < 0 || n > INT32_MAX)
        return -2;
    const int64_t full = n / BLOCK, blocks = (n + BLOCK - 1) / BLOCK;
    const int64_t most = blocks / TOUCHED_SHARE;
    if (capacity < BLOCK * most || shortlist_size < 0 || shortlist_size > capacity)
        return -2;
    int32_t *const listed = ids + (capacity - most);
    int64_t count = 0;
    for (int64_t b = 0; b < blocks; b++) {
        const int64_t size = b < full ? BLOCK : n - full * BLOCK;
        if (!any_vote(votes + b * BLOCK, size))
            continue;
        if (count == most) {
            return shortlist_size > 0
                ? dense_shortlist(n, votes, order, capacity, ids, weights, shortlist_size)
                : -1;
        }
        listed[count++] = (int32_t)b;
    }
    int64_t m = 0;
    for (int64_t i = 0; i < count; i++) {
        const int64_t lo = (int64_t)listed[i] * BLOCK;
        const int64_t hi = lo + BLOCK < n ? lo + BLOCK : n;
        for (int64_t j = lo; j < hi; j++) {
            const int32_t vote = votes[j];
            ids[m] = order[j];
            weights[m] = vote;
            m += vote != 0;
        }
        memset(votes + lo, 0, (size_t)(hi - lo) * sizeof *votes);
    }
    return shortlist_size > 0 ? shortlist_touched(m, ids, weights, shortlist_size) : m;
}

/* Probe rows ordered by the query's margins, as in query-directed probing
 * (Lv et al., "Multi-Probe LSH", VLDB 2007).
 *
 * Row t of ``probes`` (width codes) is codes[t] XOR each of the plan's
 * ``masks``: mask 0, then whole Hamming shells (index.probe_plan). Every
 * position keeps plan order except those in [shells[2t], shells[2t + 1]),
 * the table's last, partly probed shell, which vote.ProbePlan derives from
 * the masks and the table's budget when it binds the plan and this
 * checks again for every query. There the masks go by ascending
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

static int64_t probe_rows(
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
    struct keyed *const key = most <= SMALL_SHELL ? small : malloc((size_t)most * sizeof *key);
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
            qsort(key, (size_t)s, sizeof *key, by_margin);
            for (int64_t i = 0; i < s; i++)
                row[lo + i] = code ^ masks[key[i].at];
        }
    }
    if (key != small)
        free(key);
    return 0;
}

/* Bucket the records of table ``table`` by their codes, one counting sort
 * a page, and number them in table 0's bucket order when it is table 0;
 * hashing.insert_all sorts tables 0..num_tables-1 in turn.
 *
 * On entry, row t of ``members`` holds table t's codes of records 0..n-1
 * (hashing.insert_all hashes them there); a later table's sort needs the
 * ``order`` table 0's gave. The steps:
 *   number, table 0 only: one counting sort of the row's codes over all n
 *     records fills ``order`` with the records grouped by code, ascending
 *     within a bucket, the order a stable argsort of table 0's codes
 *     gives; internal id i is record order[i];
 *   load: ``scratch`` (n uint16) gets code row[order[i]] of internal id i,
 *     since the ids overwrite the row;
 *   then a counting sort of each page's codes in ``scratch``, in
 *     ``counts`` (2**bits int32), which every page reuses:
 *     count (count_codes, below): counts[c] becomes the page's records of
 *       code c;
 *     directory (above): the counts become the page's words of ``bitmap``
 *       and its piece of offsets, written to ``pieces`` after the earlier
 *       pages' pieces, and counts[c] of each non-empty bucket c its start
 *       within the page;
 *     scatter: the page's ids in ascending order, each less the page's
 *       first id, go to row[first + counts[c]], which then advances.
 * So table 0's pages hold 0, 1, 2, ... in turn, since its codes ascend in
 * internal order. No memory is used beyond the outputs, one table's codes
 * and one page's 2**bits counts.
 *
 * Every code is checked against 2**bits in a count pass before it is used
 * as an index; the scatter reads the same scratch again. Returns the
 * length of the table's pieces, or -1 for a code >= 2**bits, bits outside
 * [1, 16], n outside [0, INT32_MAX], a table outside [0, num_tables) or a
 * ``capacity`` below min(PAGE_SIZE(n, p), 2**bits) + 1 summed over the
 * pages p, which bounds the pieces' length; the outputs are then partly
 * written.
 */
static int count_codes(int64_t bits, const uint16_t *codes, int64_t size, int32_t *counts)
{
    const int64_t num_buckets = (int64_t)1 << bits;
    memset(counts, 0, (size_t)num_buckets * sizeof *counts);
    for (int64_t i = 0; i < size; i++) {
        if (codes[i] >= num_buckets)
            return -1;
        counts[codes[i]]++;
    }
    return 0;
}

int64_t boi_bucket_sort(
    int64_t num_tables, int64_t table, int64_t bits, int64_t n,
    uint64_t *bitmap,                   /* (num_tables, PAGES(n), WORDS(bits)) */
    int32_t *counts,                    /* (2**bits,) */
    int32_t *pieces, int64_t capacity,  /* (capacity,) */
    uint16_t *members,                  /* (num_tables, n) */
    int32_t *order,                     /* (n,) */
    uint16_t *scratch)                  /* (n,) */
{
    if (bits < 1 || bits > 16 || n < 0 || n > INT32_MAX || table < 0
        || table >= num_tables)
        return -1;
    const int64_t num_buckets = (int64_t)1 << bits, pages = PAGES(n);
    int64_t most = 0;
    for (int64_t page = 0; page < pages; page++) {
        const int64_t size = PAGE_SIZE(n, page);
        most += (size < num_buckets ? size : num_buckets) + 1;
    }
    if (most > capacity)
        return -1;
    uint16_t *const row = members + table * n;
    if (table == 0) {
        if (count_codes(bits, row, n, counts) < 0)
            return -1;
        int32_t start = 0;
        for (int64_t c = 0; c < num_buckets; c++) {
            const int32_t count = counts[c];
            counts[c] = start;
            start += count;
        }
        for (int64_t i = 0; i < n; i++)
            order[counts[row[i]]++] = (int32_t)i;
    }
    for (int64_t i = 0; i < n; i++)
        scratch[i] = row[order[i]];
    int64_t length = 0;
    for (int64_t page = 0; page < pages; page++) {
        const int64_t first = page * PAGE, size = PAGE_SIZE(n, page);
        const uint16_t *const codes = scratch + first;
        if (count_codes(bits, codes, size, counts) < 0)
            return -1;
        length += directory(
            bits, counts, first, bitmap + (table * pages + page) * WORDS(bits),
            pieces + length);
        for (int64_t i = 0; i < size; i++)
            row[first + counts[codes[i]]++] = (uint16_t)i;
    }
    return length;
}

/* The set bits of one piece's WORDS(bits) words of bitmap, or -2 when one
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

/* The number of non-empty buckets of page ``page`` of table ``table`` of a
 * snapshot of n records, the set bits of its words of ``bitmap``, so that
 * data_io.load_index knows how many bucket sizes its record holds: -2 when
 * a bit is set for a code at or past 2**bits, and -1 for bits outside
 * [1, 16], n outside [0, INT32_MAX], or a table or page outside [0,
 * num_tables) or [0, PAGES(n)). */
int64_t boi_table_buckets(
    int64_t num_tables, int64_t bits, int64_t n,
    const uint64_t *bitmap,             /* (num_tables, PAGES(n), WORDS(bits)) */
    int64_t table, int64_t page)
{
    if (bits < 1 || bits > 16 || n < 0 || n > INT32_MAX || table < 0
        || table >= num_tables || page < 0 || page >= PAGES(n))
        return -1;
    return table_buckets(bits, bitmap + (table * PAGES(n) + page) * WORDS(bits));
}

/* Check page ``page`` of table ``table`` of a snapshot, as
 * data_io.load_index reads its record straight into the index's arrays,
 * in one pass over its bucket sizes and one over its ids, and turn the
 * sizes into its piece of offsets in place.
 *
 * The page's words of ``bitmap`` mark its k non-empty buckets, and
 * offsets[at + 1 .. at + k] holds their sizes in code order, read as
 * uint32. Every size must be at least 1, and their sum, taken as uint64 so
 * that no size can wrap it, must be the page's size s = PAGE_SIZE(n, page);
 * then offsets[at .. at + k] become the piece (directory, above): the
 * position of each bucket in the row, from the page's first id, then the
 * page's end. Start i is written over size i - 1, which has been read, so
 * no scratch is needed. The page's s stored ids, row ``table`` of
 * ``members`` from the page's first id, must each be below s, and their
 * uint32 sum, which no s <= 2**16 ids below 2**16 can wrap, must be
 * s(s - 1)/2, the sum of 0..s-1, which any single flipped bit of a
 * permutation changes by a power of two. The id pass has no branch and no
 * compare, so it vectorises (a compare-select max did not, under the
 * default flags).
 *
 * Returns k + 1, the length of the piece, when the record passes;
 * otherwise the first check that fails: -2 a bit set past 2**bits, -3 a
 * size of 0, -4 sizes that do not sum to s (``offsets`` is unchanged after
 * these three), -5 an id of s or more, -6 ids whose sum is wrong; or -1
 * for bits outside [1, 16], n outside [0, INT32_MAX], a table or page
 * outside [0, num_tables) or [0, PAGES(n)), or a piece that does not fit
 * between ``at`` and the end of the num_offsets offsets.
 */
int64_t boi_check_table(
    int64_t num_tables, int64_t bits, int64_t n,
    const uint64_t *bitmap,             /* (num_tables, PAGES(n), WORDS(bits)) */
    int32_t *offsets, int64_t num_offsets, /* (num_offsets,) */
    const uint16_t *members,            /* (num_tables, n) */
    int64_t table, int64_t page, int64_t at)
{
    const int64_t k = boi_table_buckets(num_tables, bits, n, bitmap, table, page);
    if (k < 0)
        return k;
    if (at < 0 || at + k >= num_offsets)
        return -1;
    const int64_t first = page * PAGE, size = PAGE_SIZE(n, page);
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
    if (total != (uint64_t)size)
        return -4;
    /* so every size is at most the page's, and int32 holds every start */
    int32_t start = (int32_t)first;
    for (int64_t i = 0; i < k; i++) {
        const int32_t count = (int32_t)sizes[i];
        piece[i] = start;
        start += count;
    }
    piece[k] = start;
    /* an id v is below s <= 2**16 iff (s - 1) - v, wrapped, has no top bit
     * set: an OR instead of an unsigned compare, which SSE2 lacks */
    const uint16_t *const ids = members + table * n + first;
    const uint32_t last = (uint32_t)size - 1;
    uint32_t bad = 0, sum = 0;
    for (int64_t i = 0; i < size; i++) {
        bad |= last - ids[i];
        sum += ids[i];
    }
    if (bad >> 31)
        return -5;
    return sum == (uint32_t)(size * (size - 1) / 2) ? k + 1 : -6;
}

/* Check the directory of num_tables tables of n records (this file's
 * header comment) and make its rank: no bit set for a code at or past
 * 2**bits, and the piece of each (table, page) rising strictly from the
 * page's first id to its end, one offset a set bit and then the end, the
 * pieces filling the num_offsets offsets exactly. ``rank`` gets each
 * word's position in ``offsets``, so this is the one loop that counts the
 * pieces. Returns 0 when the directory holds, else the first fault found:
 * 1 a bit past 2**bits, 2 a count of offsets, 3 offsets that do not rise
 * from a page's start to its end; or -1 for bits outside [1, 16], n
 * outside [0, INT32_MAX] or more than INT32_MAX offsets, which int32 ranks
 * cannot reach. ``rank`` is then partly written. Nothing is allocated.
 */
int64_t boi_check_directory(
    int64_t num_tables, int64_t bits, int64_t n,
    const uint64_t *bitmap,             /* (num_tables, PAGES(n), WORDS(bits)) */
    const int32_t *offsets, int64_t num_offsets, /* (num_offsets,) */
    int32_t *rank)                      /* (num_tables, PAGES(n), WORDS(bits)) */
{
    if (bits < 1 || bits > 16 || n < 0 || n > INT32_MAX || num_tables < 0
        || num_offsets > INT32_MAX)
        return -1;
    const int64_t words = WORDS(bits), pages = PAGES(n);
    const uint64_t past = PAST(bits);
    int64_t at = 0; /* the position of the next non-empty bucket */
    for (int64_t row = 0; row < num_tables * pages; row++) {
        const int64_t page = row % pages, first = page * PAGE;
        const int64_t base = at; /* where the piece begins */
        for (int64_t w = 0; w < words; w++) {
            const uint64_t word = bitmap[row * words + w];
            if (word & past)
                return 1;
            rank[row * words + w] = (int32_t)at;
            at += popcount(word);
        }
        if (at >= num_offsets)
            return 2;
        const int32_t *const piece = offsets + base;
        const int64_t k = at - base;
        if (piece[0] != first || piece[k] != first + PAGE_SIZE(n, page))
            return 3;
        for (int64_t i = 0; i < k; i++) {
            if (piece[i] >= piece[i + 1])
                return 3;
        }
        at++; /* past the page's end */
    }
    return at == num_offsets ? 0 : 2;
}

/* Bucket codes from float32 dot products, each sign the float32 error
 * bound cannot decide recomputed in float64 (a floating-point filter, as
 * in Shewchuk's robust predicates).
 *
 * ``dots`` (num_tables * bits, rows) holds one float32 matrix product:
 * dots[j, r] is the dot of record r (row r of ``x``) with projection row j
 * (row j of ``proj``), summed in any order. The build passes the product
 * numpy made (hashing.hash_codes_all); boi_query's hash stage passes a
 * query's dots, each summed in the one order of ``dot`` (below), so its
 * margins do not depend on the BLAS. The bound below holds for every order
 * of summation, both of these included. hashing._sign_filter sets ``bound``
 * so that bound * h is at or above any such sum's error, rounding and
 * underflow, for any h >= max(||x||, 2**-31) while ||x|| * max ||p_j|| is
 * far below float32's overflow. norm_bound finds such an h, a power of two, so each record's
 * limit bound * h is exact; a record outside that range gets h = +inf, so
 * all its dots are recomputed. A dot with |dots[j, r]| > limit has the
 * sign of the exact dot, which is then so far from 0 that a float64 sum
 * agrees with it too. Every other dot (NaN included) is recomputed as the
 * float64 sum of its exact float32 products in index order, so a record's
 * code never depends on the other records of its batch. Bit j of table t's
 * code is 1 iff the dot with row t * bits + j is >= 0, so a sign of 0 or
 * -0 sets it.
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

/* The float32 dot of p and x, dim values each, in one fixed order: lane k
 * of LANES sums p[i] * x[i] over i = k (mod LANES), ascending, over the
 * whole groups of LANES; the lanes are added as ((l0 + l1) + (l2 + l3)) +
 * ((l4 + l5) + (l6 + l7)); then the dim % LANES products past the groups
 * are added in ascending i. vote.py compiles with -ffp-contract=off, so
 * every product is rounded before it is added, on any target. The lanes
 * are independent sums, so the loop vectorises with no reassociation. */
#define LANES 8

static float dot(const float *p, const float *x, int64_t dim)
{
    const int64_t whole = dim - dim % LANES;
    float lane[LANES] = {0};
    for (int64_t i = 0; i < whole; i += LANES) {
        for (int64_t k = 0; k < LANES; k++)
            lane[k] += p[i + k] * x[i + k];
    }
    float sum = ((lane[0] + lane[1]) + (lane[2] + lane[3]))
        + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for (int64_t i = whole; i < dim; i++)
        sum += p[i] * x[i];
    return sum;
}

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
            memset(code, 0, (size_t)count * sizeof *code);
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

/* Exact distances: the Euclidean distance from a float64 query to float32
 * rows, each summed in one fixed order (``distance``), and the k nearest of
 * a set of rows, in ascending (distance, record id) (``nearest``), the
 * order core.rank_by_distance ranks them in. ``distance`` is the one
 * exact-distance loop, and only ``nearest`` runs it: for boi_nearest, which
 * ranks every row of an array (core.brute_force_query, and
 * core.pairwise_distances with k = n), and for boi_query's RERANK stage,
 * which ranks a shortlist's rows where they lie. So the oracle and every
 * bucketed query measure a record to the same bits, and a float32 filter
 * (``nearest``) skips only rows that ``distance`` would place after the
 * k-th.
 */

/* The float64 distance from row x (float32) to q (float64), dim values
 * each, in one fixed order: lane k of LANES sums d * d, d = (double)x[i] -
 * q[i], over i = k (mod LANES), ascending, over the whole groups of LANES;
 * the lanes are added as ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)),
 * as in ``dot``; then the dim % LANES squares past the groups are added in
 * ascending i, and sqrt takes the sum's correctly rounded square root
 * (IEEE 754). vote.py compiles with -ffp-contract=off, so every square is
 * rounded before it is added, and with -fno-math-errno, so sqrt is the one
 * instruction and calls nothing in libm. A float32 row's squares stay far
 * below float64's overflow, even at float32's largest magnitude. The lanes
 * are independent sums, so the loop vectorises with no reassociation.
 *
 * The bound the filter (``nearest``) rests on, for a float32 query q, so
 * that (double)q[i] is exact, and dim + 2 < 2**23. Let D be the exact
 * sum of (x[i] - q[i])**2, u = 2**-24 and t = (dim + 2) * u.
 *   square32 rounds each difference, its square and the sums that add
 *     it, at most dim - 1 of them in any order of summation, however lanes
 *     split and rejoin the terms: at most dim + 1 roundings on any term's
 *     path, fewer than the dim + 2 of gamma_{dim+2} = t / (1 - t), each
 *     within a factor 1 + u while no value overflows (Higham, "Accuracy
 *     and Stability of Numerical Algorithms", 2002, ch. 3). So the bound
 *     holds for square32's 32 lanes as for any other order. A difference
 *     that lands among the subnormals is exact, but a square may underflow,
 *     off by at most 2**-150, which the sum can enlarge by less than 1 +
 *     gamma: so its S <= D / (1 - t) + dim * 2**-149, and D >= (S - dim *
 *     2**-149) * (1 - t).
 *   ``distance`` computes D64 >= D * (1 - 2**-29): its differences,
 *     squares and sums round the same way in float64, dim + 2 times on a
 *     path, and nothing over- or underflows there.
 *   For the k-th distance e so far (a value ``distance`` returned, so 0 or
 *     at least 2**-149), the filter skips a row only when the float64
 *     (double)S - dim * 2**-149 exceeds e * e * scale, scale = (1 + 2**-20)
 *     / (1 - t), each of those four operations rounded once. Then D64 >
 *     e**2 * (1 + 2**-20) * (1 - 2**-51) * (1 - 2**-29) > e**2 * (1 +
 *     2**-51), so sqrt(D64) > e * (1 + 2**-52), which is at or above the
 *     next float64 after e; and a correctly rounded sqrt is then above e.
 *     The row's distance exceeds e, so it would not enter the heap.
 *   A row whose float32 difference, square or sum overflows has S = +inf
 *     and is always measured; at t >= 1/2 no row is skipped.
 */
static double distance(const float *x, const double *q, int64_t dim)
{
    const int64_t whole = dim - dim % LANES;
    double lane[LANES] = {0};
    for (int64_t i = 0; i < whole; i += LANES) {
        for (int64_t k = 0; k < LANES; k++) {
            const double d = (double)x[i + k] - q[i + k];
            lane[k] += d * d;
        }
    }
    double sum = ((lane[0] + lane[1]) + (lane[2] + lane[3]))
        + ((lane[4] + lane[5]) + (lane[6] + lane[7]));
    for (int64_t i = whole; i < dim; i++) {
        const double d = (double)x[i] - q[i];
        sum += d * d;
    }
    return sqrt(sum);
}

/* The float32 squared distance from row x to q, dim values each: the
 * filter's estimate (``distance``'s bound). Lane k of SQUARE_LANES sums
 * d * d, d = x[i] - q[i], over i = k (mod SQUARE_LANES), ascending, over
 * the whole groups; lane k + h is then added to lane k for h = 16, 8 and 4
 * in turn, the four lanes left are added as (l0 + l1) + (l2 + l3), and the
 * dim % SQUARE_LANES squares past the groups are added in ascending i. The
 * bound holds for any order of summation, so the lanes need not be
 * ``dot``'s 8: 32 independent sums keep eight SSE accumulators in flight
 * where 8 lanes kept two, each add waiting on the one before it. The fixed
 * steps of the fold keep the lanes in registers; a loop over h, which GCC
 * did not unroll, left them on the stack and made the oracle 5% slower
 * than 8 lanes. Over the benchmark's seed-1 base, the oracle
 * (boi_nearest) went 5.9 to 5.3 ms a query, every id and distance the
 * same. */
#define SQUARE_LANES 32

static float square32(const float *x, const float *q, int64_t dim)
{
    const int64_t whole = dim - dim % SQUARE_LANES;
    float lane[SQUARE_LANES] = {0};
    for (int64_t i = 0; i < whole; i += SQUARE_LANES) {
        for (int64_t k = 0; k < SQUARE_LANES; k++) {
            const float d = x[i + k] - q[i + k];
            lane[k] += d * d;
        }
    }
    for (int64_t k = 0; k < 16; k++)
        lane[k] += lane[k + 16];
    for (int64_t k = 0; k < 8; k++)
        lane[k] += lane[k + 8];
    for (int64_t k = 0; k < 4; k++)
        lane[k] += lane[k + 4];
    float sum = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    for (int64_t i = whole; i < dim; i++) {
        const float d = x[i] - q[i];
        sum += d * d;
    }
    return sum;
}

/* Whether (d, id) ranks before (e, other): the lower distance first, then
 * the lower record id. */
static inline int before(double d, int64_t id, double e, int64_t other)
{
    return d < e || (d == e && id < other);
}

/* Sink entry ``at`` of a max-heap of ``size`` (distance, id) entries until
 * neither child ranks after it. */
static void sink(int64_t *ids, double *dist, int64_t size, int64_t at)
{
    for (;;) {
        const int64_t left = 2 * at + 1, right = left + 1;
        int64_t last = at; /* the one of the three that ranks last */
        if (left < size && before(dist[last], ids[last], dist[left], ids[left]))
            last = left;
        if (right < size && before(dist[last], ids[last], dist[right], ids[right]))
            last = right;
        if (last == at)
            return;
        const int64_t id = ids[at];
        const double d = dist[at];
        ids[at] = ids[last];
        dist[at] = dist[last];
        ids[last] = id;
        dist[last] = d;
        at = last;
    }
}

/* Ask for every 64-byte line of row ``id`` of ``vectors`` (n, dim), unless
 * the id is outside [0, n). */
static inline void fetch(int64_t n, int64_t dim, const float *vectors, int64_t id)
{
    if (id < 0 || id >= n)
        return;
    const char *const row = (const char *)(vectors + id * dim);
    for (int64_t b = 0; b < dim * (int64_t)sizeof *vectors; b += 64)
        __builtin_prefetch(row + b);
}

/* The r = min(k, count) rows nearest to the query of the record ids
 * ids[0..count), or of rows 0..count-1 when ``ids`` is NULL, in ascending
 * (distance, record id), into top[0..r) and top_dist[0..r); returns how
 * many rows it measured with ``distance``, or -1 for an id outside [0, n).
 * The query is given twice, as float64 ``query`` and as float32 ``x``.
 * Only the filter reads ``x``, once k rows are held, and its bound needs
 * ``x`` to be ``query`` exactly, which the callers see to whenever k <
 * count. Row id is read where it lies in ``vectors`` (n, dim), with
 * no gather. One pass streams each row through a max-heap of r entries,
 * held in the output: the first r fill it, and a later row replaces the
 * root when it ranks before it. A heapsort then puts the r in order. Ids
 * are distinct, so the order is total, and the answer depends on the set
 * of ids alone, not on their order. Nothing is allocated.
 *
 * The filter (a floating-point filter, as in Shewchuk's robust predicates
 * and boi_hash_codes): once the heap is full, each row first gets its
 * float32 square32, and ``distance`` measures it unless the bound stated
 * there proves its distance above the root's, the k-th so far. Such a row
 * could not enter the heap, and every row that could is measured, so the
 * answer is the bits the unfiltered pass gives. ``reach`` is the float64
 * limit on (double)S - slack that the filter tests, +inf while the heap
 * fills or when the bound does not hold (dim + 2 >= 2**23).
 *
 * A shortlist's rows lie scattered over the base vectors and are cold
 * after the vote, so each row's lines are asked for AHEAD rows before it
 * is measured, and AHEAD rows arrive at once instead of one after
 * another. On the benchmark's seed-1 data the stage took 0.125 ms a query
 * without it and 0.05 ms with it, at b = 8 and b = 16; 2 to 16 rows ahead
 * were alike within the noise. Rows 0..count-1 are read in order, which
 * the hardware prefetches unasked. */
#define AHEAD 8

static int64_t nearest(
    int64_t n, int64_t dim, const float *vectors, const float *x, const double *query,
    int64_t count, const int32_t *ids, int64_t k, int64_t *top, double *top_dist)
{
    const int64_t r = k < count ? k : count;
    const double relative = (double)(dim + 2) * 0x1p-24;
    const double scale = relative < 0.5 ? (1.0 + 0x1p-20) / (1.0 - relative) : 0.0;
    const double slack = (double)dim * 0x1p-149;
    double reach = INFINITY;
    int64_t measured = 0;
    for (int64_t i = 0; i < count; i++) {
        const int64_t id = ids ? ids[i] : i;
        if (id < 0 || id >= n)
            return -1;
        if (ids && i + AHEAD < count)
            fetch(n, dim, vectors, ids[i + AHEAD]);
        const float *const row = vectors + id * dim;
        if (i < r) {
            top[i] = id;
            top_dist[i] = distance(row, query, dim);
            measured++;
            if (i < r - 1)
                continue;
            for (int64_t at = r / 2; at-- > 0;)
                sink(top, top_dist, r, at);
        } else {
            if (r == 0)
                continue;
            const float s = reach < INFINITY ? square32(row, x, dim) : INFINITY;
            if (s <= FLT_MAX && (double)s - slack > reach)
                continue;
            const double d = distance(row, query, dim);
            measured++;
            if (!before(d, id, top_dist[0], top[0]))
                continue;
            top[0] = id;
            top_dist[0] = d;
            sink(top, top_dist, r, 0);
        }
        if (scale > 0.0)
            reach = top_dist[0] * top_dist[0] * scale;
    }
    for (int64_t size = r - 1; size > 0; size--) {
        const int64_t id = top[0];
        const double d = top_dist[0];
        top[0] = top[size];
        top_dist[0] = top_dist[size];
        top[size] = id;
        top_dist[size] = d;
        sink(top, top_dist, size, 0);
    }
    return measured;
}

/* The min(k, n) rows of ``rows`` (n, dim) nearest to the query, as record
 * ids 0..n-1 in ascending (distance, id), into top and top_dist, by
 * ``nearest`` over every row: the query is ``query`` (dim,) float64 and
 * ``x``, its float32 copy, exact whenever k < n (vote.nearest_rows checks
 * it). Returns how many rows ``distance`` measured, or -1 for a negative
 * size. */
int64_t boi_nearest(
    int64_t n, int64_t dim,
    const float *rows,                  /* (n, dim) */
    const float *x,                     /* (dim,) */
    const double *query,                /* (dim,) */
    int64_t k,
    int64_t *top,                       /* (min(k, n),) */
    double *top_dist)                   /* (min(k, n),) */
{
    if (n < 0 || dim < 0 || k < 0)
        return -1;
    return nearest(n, dim, rows, x, query, n, NULL, k, top, top_dist);
}

/* A query's stages, in one fixed order:
 *   HASH: the query's dot products, each in the order of ``dot``, then the
 *     sign filter (boi_hash_codes), into the scratch's dots and codes;
 *   ROWS: the probe rows of those codes and dots (probe_rows);
 *   VOTE: the gather+vote of the rows (gather_vote); counts[0] gets the
 *     (id, vote) pairs it scanned;
 *   TAKE: the touched pass, with the shortlist's set when
 *     ``shortlist_size`` is 1 or more, dense votes included (touched_votes);
 *     counts[1] gets the number of pairs it leaves at the front of ``ids``;
 *   RERANK: the min(k, counts[1]) records of those ids nearest to the
 *     query, ranked (nearest, its float32 filter reading the query's
 *     float32 ``x``), from the base vectors bound in the block and a
 *     float64 copy of the query it makes in the scratch, into the
 *     scratch's nearest ids and their distances.
 * boi_query runs stages [first, last), each as above, and a stage reads
 * what the stages before it left in the scratch, counts[1] included.
 * vote.QueryScratch runs all five for a query, with the GIL released, once
 * it has copied the query into the bound ``x``, and one at a time for
 * index.accumulate.
 *
 * ``block`` holds what is fixed for one thread's scratch and one probe
 * plan, bound once (vote.QueryScratch): the slots below, in this order,
 * each an int64 size or an address; the sign filter's float32 bound and
 * float64 safe square are stored as the bits of a float64. The pairs', the
 * results' and the base vectors' slots come next to last, so a longer
 * shortlist or other vectors rewrite only those, and the plan's slots come
 * last, so binding another plan rewrites only those.
 *
 * Returns what the last stage run returns, when TAKE or RERANK runs: for
 * TAKE, the size of the shortlist's set at the front of ``ids``, or m
 * touched pairs given no shortlist size, the votes all zero again, or -1
 * when, given none, the votes are dense and left as they are (RERANK then
 * does not run); for RERANK, the number of records it ranked. Otherwise 0
 * once the stages have run; -2 when the heap had no room to order a shell;
 * -3 for arguments a stage refuses: sizes the hash refuses, a shell
 * outside the row, or a shortlist size outside [0, capacity]; -4 for a
 * corrupt table, the votes partly written, or a shortlisted id outside [0,
 * n); -5, before any stage runs, for a range outside [0, STAGES] or with
 * first > last; -6 when RERANK has no base vectors bound, a negative k, a
 * count outside [0, capacity] or more records to rank than its room holds.
 */
enum { HASH, ROWS, VOTE, TAKE, RERANK, STAGES };

enum {
    Q_TABLES, Q_BITS, Q_N, Q_BITMAP, Q_RANK, Q_OFFSETS, Q_NUM_OFFSETS, Q_MEMBERS,
    Q_DIM, Q_PROJECTIONS, Q_BOUND, Q_SAFE_SQUARE, Q_X, Q_QUERY, Q_DOTS, Q_CODES,
    Q_VOTES, Q_ORDER,
    Q_CAPACITY, Q_IDS, Q_WEIGHTS, /* the pairs' */
    Q_ROOM, Q_NEAREST, Q_DISTANCES, /* the results' */
    Q_VECTORS, /* the base vectors', (n, dim) float32, or 0 */
    Q_WIDTH, Q_MASKS, Q_SHELLS, Q_UNITS, Q_BUDGETS, Q_PROBES, /* the plan's */
    Q_SLOTS
};

/* the slots of boi_query's block, which vote.py checks it fills */
const int64_t boi_query_slots = Q_SLOTS;

#define AT(type, slot) ((type *)(uintptr_t)block[slot])
#define RUNS(stage) (first <= (stage) && (stage) < last)

int64_t boi_query(
    const int64_t *block, int64_t first, int64_t last, int64_t shortlist_size,
    int64_t k, int64_t *counts)
{
    if (first < 0 || first > last || last > STAGES)
        return -5;
    const int64_t num_tables = block[Q_TABLES], bits = block[Q_BITS];
    const int64_t n = block[Q_N], dim = block[Q_DIM], width = block[Q_WIDTH];
    const float *const x = AT(const float, Q_X);
    float *const dots = AT(float, Q_DOTS);
    uint16_t *const codes = AT(uint16_t, Q_CODES), *const probes = AT(uint16_t, Q_PROBES);
    int32_t *const votes = AT(int32_t, Q_VOTES), *const ids = AT(int32_t, Q_IDS);
    if (RUNS(HASH)) {
        const float *const proj = AT(const float, Q_PROJECTIONS);
        double bound, safe_square;
        memcpy(&bound, block + Q_BOUND, sizeof bound);
        memcpy(&safe_square, block + Q_SAFE_SQUARE, sizeof safe_square);
        for (int64_t j = 0; j < num_tables * bits; j++)
            dots[j] = dot(proj + j * dim, x, dim);
        if (boi_hash_codes(
                num_tables, bits, 1, dim, dots, x, proj, (float)bound, safe_square,
                codes, 1, 1) < 0)
            return -3;
    }
    if (RUNS(ROWS)) {
        const int64_t status = probe_rows(
            num_tables, bits, width, codes, dots, AT(const uint16_t, Q_MASKS),
            AT(const int64_t, Q_SHELLS), probes);
        if (status)
            return status == -2 ? -2 : -3;
    }
    if (RUNS(VOTE)) {
        const int64_t pairs = gather_vote(
            num_tables, bits, n, AT(const uint64_t, Q_BITMAP), AT(const int32_t, Q_RANK),
            AT(const int32_t, Q_OFFSETS), block[Q_NUM_OFFSETS],
            AT(const uint16_t, Q_MEMBERS), probes, width, AT(const uint32_t, Q_UNITS),
            AT(const int64_t, Q_BUDGETS), votes);
        if (pairs < 0)
            return -4;
        counts[0] = pairs;
    }
    if (RUNS(TAKE)) {
        const int64_t taken = touched_votes(
            n, votes, AT(const int32_t, Q_ORDER), block[Q_CAPACITY], ids,
            AT(int32_t, Q_WEIGHTS), shortlist_size);
        if (taken == -2)
            return -3;
        counts[1] = taken > 0 ? taken : 0;
        if (taken < 0 || !RUNS(RERANK))
            return taken;
    }
    if (RUNS(RERANK)) {
        const float *const vectors = AT(const float, Q_VECTORS);
        const int64_t count = counts[1];
        if (vectors == NULL || k < 0 || count < 0 || count > block[Q_CAPACITY]
            || (k < count ? k : count) > block[Q_ROOM])
            return -6;
        double *const query = AT(double, Q_QUERY);
        for (int64_t j = 0; j < dim; j++)
            query[j] = x[j];
        if (nearest(
                n, dim, vectors, x, query, count, ids, k, AT(int64_t, Q_NEAREST),
                AT(double, Q_DISTANCES))
            < 0)
            return -4;
        return k < count ? k : count;
    }
    return 0;
}
