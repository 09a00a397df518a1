/* The compiled sweep block and replica draws (loaded by native.py).
 *
 * run_block is a straight port of the fused kernel's per-replica NumPy
 * loop, for both engines: plain SA runs it with every incumbent feasible,
 * so no replica drifts.  draw_flips and metropolis are LoopDriver's
 * single-flip draws and Metropolis verdicts, for any kernel.  All of them
 * advance the replicas' numpy PCG64 streams in the driver's lanes: the
 * 128-bit LCG step with the XSL-RR output, the bit generator's buffered
 * next32 (low half first, high half parked), numpy's 32-bit Lemire sampler
 * for integers(0, n) and random().  Every energy, field and load update is
 * the IEEE operation the NumPy loop applies to that element, in the same
 * order, and acceptance calls libm exp as math.exp does.  Build with
 * -ffp-contract=off so the compiler fuses no multiply-add.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define LOAD_TOLERANCE 1e-9
#define MASK32 0xFFFFFFFFULL

typedef unsigned __int128 u128;

/* Pointers into the Python kernel's arrays, row-major; float64 unless
 * noted.  The field order is native.py's _Sweep.  NULL marks an absent
 * array: no ladder factors, or the unused dense or CSR side. */
typedef struct {
    int64_t replicas, n, constraints, moves, sparse;
    /* travelling state, written by the blocks */
    double *current, *current_energy, *raw_energy;
    uint8_t *current_feasible;
    double *best, *best_energy;
    uint8_t *best_feasible;
    double *field, *loads;
    int64_t *num_feasible, *num_skipped, *num_accepted;
    /* model, read only: temperatures, Q + Q^T, constraints */
    const double *base, *factors, *diag, *symmetric;
    const int64_t *sym_indptr, *sym_indices;
    const double *sym_data, *weights_t, *bounds;
    const uint8_t *equality;
    /* the driver's lanes: one PCG64 stream per replica */
    uint64_t *lanes;
} sweep_t;

/* LoopDriver's draw buffers (native.py's _Draws): the lanes, the ladder
 * factors (NULL: one temperature for every replica), the flip indices
 * draw_flips writes, and the steps, replica indices and verdicts of one
 * metropolis call. */
typedef struct {
    int64_t replicas;
    uint64_t *lanes;
    const double *factors;
    int64_t *flips;
    const double *delta;
    const int64_t *indices;
    uint8_t *verdicts;
} draws_t;

typedef struct {
    u128 state, inc;
    uint64_t has32, buffered;
} stream_t;

typedef struct {
    int64_t flip;
    double bit, sign, delta;
} move_t;

/* Replica k's stream in row-major (6, m) lanes: state high and low limbs,
 * increment high and low, the parked-half flag and the parked half. */
static inline stream_t load_stream(const uint64_t *lanes, int64_t m, int64_t k)
{
    stream_t r = {((u128)lanes[k] << 64) | lanes[m + k],
                  ((u128)lanes[2 * m + k] << 64) | lanes[3 * m + k],
                  lanes[4 * m + k], lanes[5 * m + k]};
    return r;
}

static inline void store_stream(uint64_t *lanes, int64_t m, int64_t k, const stream_t *r)
{
    lanes[k] = (uint64_t)(r->state >> 64);
    lanes[m + k] = (uint64_t)r->state;
    lanes[4 * m + k] = r->has32;
    lanes[5 * m + k] = r->buffered;
}

static inline uint64_t next64(stream_t *r)
{
    const u128 mult = ((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
    r->state = r->state * mult + r->inc;
    uint64_t hi = (uint64_t)(r->state >> 64), word = hi ^ (uint64_t)r->state;
    unsigned rot = (unsigned)(hi >> 58);
    return (word >> rot) | (word << ((64 - rot) & 63));
}

static inline uint64_t next32(stream_t *r)
{
    if (r->has32) {
        r->has32 = 0;
        return r->buffered;
    }
    uint64_t value = next64(r);
    r->has32 = 1;
    r->buffered = value >> 32;
    return value & MASK32;
}

/* Generator.random(): the top 53 bits of one draw, times 2**-53. */
static inline double uniform(stream_t *r)
{
    return (double)(next64(r) >> 11) * (1.0 / 9007199254740992.0);
}

/* Generator.integers(0, bound) for bound <= 2**32: 32-bit Lemire. */
static inline uint64_t integers(stream_t *r, uint64_t bound)
{
    if (bound <= 1)
        return 0;
    uint64_t product = next32(r) * bound;
    if ((product & MASK32) < bound) {
        uint64_t threshold = (0x100000000ULL - bound) % bound;
        while ((product & MASK32) < threshold)
            product = next32(r) * bound;
    }
    return product >> 32;
}

/* The scalar Metropolis rule of repro.dynamics.acceptance. */
static inline int accept(double step, double temperature, double draw)
{
    if (step <= 0.0)
        return 1;
    if (temperature <= 0.0)
        return 0;
    double exponent = -step / temperature;
    if (exponent < -700.0)
        return 0;
    return draw < exp(exponent);
}

/* Draws replica k's flip; its energy delta comes from the local field. */
static inline move_t propose(const sweep_t *s, stream_t *r, int64_t k)
{
    move_t m;
    m.flip = (int64_t)integers(r, (uint64_t)s->n);
    m.bit = s->current[k * s->n + m.flip];
    m.sign = 1.0 - 2.0 * m.bit;
    double d = s->diag[m.flip];
    m.delta = m.sign * (d + s->field[k * s->n + m.flip] - 2.0 * d * m.bit);
    return m;
}

/* Post-flip constraint loads into `candidate`; nonzero if all are met. */
static int admits(const sweep_t *s, int64_t k, const move_t *m, double *candidate)
{
    int passed = 1;
    for (int64_t c = 0; c < s->constraints; c++) {
        double value = s->loads[k * s->constraints + c]
                       + m->sign * s->weights_t[m->flip * s->constraints + c];
        candidate[c] = value;
        if (s->equality[c] ? !(fabs(value - s->bounds[c]) <= LOAD_TOLERANCE)
                           : !(value <= s->bounds[c] + LOAD_TOLERANCE))
            passed = 0;
    }
    return passed;
}

/* field += sign * row; a field row and a matrix row never overlap. */
static void add_row(double *restrict field, const double *restrict row, double sign, int64_t n)
{
    for (int64_t j = 0; j < n; j++)
        field[j] += sign * row[j];
}

/* Applies replica k's flip: the bit, its loads and its local-field row. */
static void commit(const sweep_t *s, int64_t k, const move_t *m, const double *candidate)
{
    double *field = s->field + k * s->n;
    s->current[k * s->n + m->flip] = 1.0 - m->bit;
    for (int64_t c = 0; c < s->constraints; c++)
        s->loads[k * s->constraints + c] = candidate[c];
    if (!s->sparse) {
        add_row(field, s->symmetric + m->flip * s->n, m->sign, s->n);
        return;
    }
    for (int64_t p = s->sym_indptr[m->flip]; p < s->sym_indptr[m->flip + 1]; p++)
        field[s->sym_indices[p]] += m->sign * s->sym_data[p];
}

/* Advances every replica `count` iterations from `start`.  Replicas are
 * independent between block boundaries (each owns its stream and its state
 * rows), so looping them outermost is the lock-step order. */
void run_block(const sweep_t *s, int64_t start, int64_t count)
{
    double candidate[s->constraints + 1];
    for (int64_t k = 0; k < s->replicas; k++) {
        stream_t r = load_stream(s->lanes, s->replicas, k);
        for (int64_t it = start; it < start + count; it++) {
            double t = s->factors ? s->base[it] * s->factors[k] : s->base[it];
            for (int64_t move = 0; move < s->moves; move++) {
                move_t m = propose(s, &r, k);
                /* The raw QUBO value moves with the flip; the incumbent's
                 * energy is 0 while it is infeasible. */
                double energy = s->raw_energy[k] + m.delta;
                if (!admits(s, k, &m, candidate)) {
                    s->num_skipped[k]++;
                    /* Infeasible incumbents drift freely at energy 0
                     * (paper Eq. (6)), exactly as the NumPy loop. */
                    if (!s->current_feasible[k]) {
                        s->current_energy[k] = 0.0;
                        s->raw_energy[k] = energy;
                        commit(s, k, &m, candidate);
                    }
                    continue;
                }
                s->num_feasible[k]++;
                if (!accept(energy - s->current_energy[k], t, uniform(&r)))
                    continue;
                s->current_energy[k] = energy;
                s->raw_energy[k] = energy;
                s->current_feasible[k] = 1;
                commit(s, k, &m, candidate);
                s->num_accepted[k]++;
                if (s->current_energy[k] < s->best_energy[k] || !s->best_feasible[k]) {
                    s->best_energy[k] = s->current_energy[k];
                    memcpy(s->best + k * s->n, s->current + k * s->n, (size_t)s->n * sizeof(double));
                    s->best_feasible[k] = 1;
                }
            }
        }
        store_stream(s->lanes, s->replicas, k, &r);
    }
}

/* LoopDriver.flip_indices: flips[k] = integers(0, bound) from replica k's
 * stream, bound <= 2**32. */
void draw_flips(const draws_t *d, uint64_t bound)
{
    for (int64_t k = 0; k < d->replicas; k++) {
        stream_t r = load_stream(d->lanes, d->replicas, k);
        d->flips[k] = (int64_t)integers(&r, bound);
        store_stream(d->lanes, d->replicas, k, &r);
    }
}

/* LoopDriver.metropolis: one random() per listed replica, in list order,
 * judged by accept() at base or base * factors[k].  A negative index counts
 * from the end, as Python's do; returns the position of the first index out
 * of range (entries before it are drawn and judged), or -1. */
int64_t metropolis(const draws_t *d, int64_t count, double base)
{
    for (int64_t i = 0; i < count; i++) {
        int64_t k = d->indices[i];
        if (k < 0)
            k += d->replicas;
        if (k < 0 || k >= d->replicas)
            return i;
        stream_t r = load_stream(d->lanes, d->replicas, k);
        double t = d->factors ? base * d->factors[k] : base;
        d->verdicts[i] = (uint8_t)accept(d->delta[i], t, uniform(&r));
        store_stream(d->lanes, d->replicas, k, &r);
    }
    return -1;
}

/* For tests: draws[i] = integers(0, bounds[i]), or random() where
 * bounds[i] is 0, from one stream laid out as one lane (state hi, state lo,
 * inc hi, inc lo, has_uint32, uinteger); the advanced stream is written
 * back. */
void draw_stream(uint64_t *lane, int64_t count, const uint64_t *bounds, double *draws)
{
    stream_t r = load_stream(lane, 1, 0);
    for (int64_t i = 0; i < count; i++)
        draws[i] = bounds[i] ? (double)integers(&r, bounds[i]) : uniform(&r);
    store_stream(lane, 1, 0, &r);
}
