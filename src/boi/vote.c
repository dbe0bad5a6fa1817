/* Weighted gather+vote over the probed buckets of every hash table.
 *
 * Table t probes the first budgets[t] + 1 codes of its row of ``probes``;
 * the code at position j lies at Hamming distance dists[j] from the
 * query's code, and every id in its bucket,
 * members[t, offsets[t, c]:offsets[t, c + 1]], gains 1 << (bits - dists[j])
 * votes (the weight 2**-H in units of 2**-bits).
 *
 * Codes are uint16 and offsets int32, as in hashing.CODE_DTYPE and
 * hashing.OFFSET_DTYPE, so bits is at most 16 (core.MAX_HASH_BITS).
 *
 * Every value read from an array is checked before it is used as an index,
 * so a corrupt table returns -1 instead of reading or writing out of
 * bounds. Otherwise the return value is the number of (id, vote) pairs
 * scanned. Sums are exact integers, so their order does not matter.
 */
#include <stdint.h>

int64_t boi_gather_vote(
    int64_t num_tables, int64_t bits, int64_t n,
    const int32_t *offsets,             /* (num_tables, 2**bits + 1) */
    const int32_t *members, int64_t member_stride, /* row t at t * stride */
    const uint16_t *probes, int64_t width, /* (num_tables, width) */
    const uint8_t *dists,               /* (width,) */
    const int64_t *budgets,             /* (num_tables,) */
    int32_t *votes)                     /* (n,) */
{
    if (bits < 1 || bits > 16)
        return -1;
    const int64_t num_buckets = (int64_t)1 << bits;
    int64_t scanned = 0;
    for (int64_t t = 0; t < num_tables; t++) {
        const int64_t count = budgets[t] + 1;
        if (count < 1 || count > width)
            return -1;
        const int32_t *off = offsets + t * (num_buckets + 1);
        const int32_t *row = members + t * member_stride;
        const uint16_t *codes = probes + t * width;
        for (int64_t j = 0; j < count; j++) {
            const int64_t c = codes[j];
            if (c >= num_buckets || dists[j] > bits)
                return -1;
            const int64_t start = off[c], stop = off[c + 1];
            if (start < 0 || start > stop || stop > n)
                return -1;
            const uint32_t vote = (uint32_t)1 << (bits - dists[j]);
            for (int64_t i = start; i < stop; i++) {
                const uint32_t id = (uint32_t)row[i];
                if (id >= (uint64_t)n)
                    return -1;
                /* unsigned, so even a corrupt table cannot overflow */
                votes[id] = (int32_t)((uint32_t)votes[id] + vote);
            }
            scanned += stop - start;
        }
    }
    return scanned;
}
