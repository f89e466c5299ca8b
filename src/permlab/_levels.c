/* One level of the minor lattice (permlab.lattice.MinorTable.add_level).

   For each level-k mask m in masks[0 .. count-1]:
       vals[m] = sum over set bits i of m of  row[i] * vals[m ^ (1 << i)].

   Exact in int64: a level-j value is at most j! in absolute value, so every
   partial sum here is at most k * (k-1)! = k! <= 20! < 2**63.  Reads touch
   only level k-1 and writes only level k, so the masks may be visited in any
   order. */
#include <stdint.h>

void add_level(int64_t *vals, const int64_t *masks, int64_t count, const int64_t *row)
{
    for (int64_t j = 0; j < count; j++) {
        uint64_t m = (uint64_t)masks[j];
        int64_t acc = 0;
        for (uint64_t rest = m; rest; rest &= rest - 1) {
            int i = __builtin_ctzll(rest);
            acc += row[i] * vals[m ^ ((uint64_t)1 << i)];
        }
        vals[m] = acc;
    }
}
