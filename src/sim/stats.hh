/**
 * @file
 * Lightweight named-statistics package (counters, scalars, averages,
 * histograms) used by every simulated component.
 *
 * A StatGroup is a flat registry of named statistics. Components create
 * their stats against a group; harnesses dump or query the group after a
 * run. The package is intentionally simple: everything is a double or a
 * 64-bit counter, there is no hierarchy beyond the component name prefix.
 *
 * Hot-path cost model: a stat's string name is looked up once, at
 * registration. Components keep the returned reference and bump it with
 * no string hashing or tree walk; names are only touched again at report
 * time.
 */

#ifndef LTP_SIM_STATS_HH
#define LTP_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ltp
{

/** A monotonically increasing 64-bit event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * An accumulating average: tracks sum, count, min and max of samples.
 * Used for, e.g., per-message queueing delay at a directory.
 */
class Average
{
  public:
    void sample(double v);

    /** Fold another average's samples into this one (exact for the
     *  tick-valued samples the simulator records). */
    void merge(const Average &o);

    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    void reset();

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A fixed-bucket histogram over [0, bucketWidth * nBuckets); samples
 * beyond the last bucket land in an overflow bucket.
 */
class Histogram
{
  public:
    Histogram(double bucket_width, std::size_t n_buckets);

    /** Record @p v. Negative (or NaN) samples clamp into bucket 0. */
    void sample(double v);

    /** Fold another histogram (same shape) into this one. */
    void merge(const Histogram &o);

    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t overflow() const { return overflow_; }
    std::size_t numBuckets() const { return buckets_.size(); }
    double bucketWidth() const { return width_; }
    std::uint64_t totalSamples() const { return total_; }
    double mean() const { return total_ ? sum_ / double(total_) : 0.0; }

    /**
     * Value below which fraction @p p of the samples fall (upper edge of
     * the covering bucket; overflow samples report the histogram range).
     * @pre 0.0 <= p <= 1.0. Returns 0.0 when empty.
     */
    double percentile(double p) const;

    void reset();

  private:
    double width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * A point-in-time capture of a StatGroup's scalar state: counter
 * values plus average (sum, count) pairs. Two snapshots subtract to
 * an interval delta — the basis of the time-series metrics sampler
 * (obs/metrics.hh), which reads "what happened in the last N ticks"
 * off a monotonically accumulating group. Histograms are deliberately
 * not captured: copying every bucket per sample would make sampling
 * cost scale with histogram shape, and the sampler only needs rates.
 */
struct StatSnapshot
{
    struct AvgState
    {
        double sum = 0.0;
        std::uint64_t count = 0;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, AvgState> averages;

    /**
     * This snapshot minus @p older (per name; names absent from
     * @p older subtract zero, i.e. stats registered mid-interval
     * report their full accumulation).
     */
    StatSnapshot delta(const StatSnapshot &older) const;
};

/**
 * A flat, named registry of statistics.
 *
 * Names are dotted paths ("dir.0.queueing"). Each kind lives in a map
 * sorted by name: the sorted iteration keeps dump() and snapshot()
 * output canonical, and map nodes never move, so a reference returned
 * at registration stays valid for the lifetime of the group.
 */
class StatGroup
{
  public:
    /** Register (or look up) the counter @p name. */
    Counter &counter(const std::string &name) { return counters_[name]; }
    /** Register (or look up) the average @p name. */
    Average &average(const std::string &name) { return averages_[name]; }

    /**
     * Register (or look up) a histogram. The shape arguments only apply
     * on first registration; later calls return the existing histogram.
     */
    Histogram &histogram(const std::string &name, double bucket_width = 16.0,
                         std::size_t n_buckets = 128);

    /** Value of the counter @p name; 0 when absent (never creates one —
     *  use counter() to register). */
    std::uint64_t counterValue(const std::string &name) const;
    /** Look up an existing average's mean (0.0 if absent). */
    double averageMean(const std::string &name) const;
    /** Look up an existing histogram (nullptr if absent). */
    const Histogram *findHistogram(const std::string &name) const;

    bool hasCounter(const std::string &name) const;
    bool hasAverage(const std::string &name) const;
    bool hasHistogram(const std::string &name) const;

    /** Largest value among counters whose name starts with @p prefix. */
    std::uint64_t maxCounterValueWithPrefix(const std::string &prefix) const;

    /**
     * Fold another group into this one: counters add, averages and
     * histograms (same shape) merge, names absent here are created.
     * The parallel engine uses this to aggregate per-shard groups; all
     * merged quantities are integer-valued sums, so the result is
     * bit-identical to single-group accumulation regardless of how
     * samples were spread over shards.
     */
    void mergeFrom(const StatGroup &o);

    /**
     * Dump every statistic, one per line. The registries are sorted
     * maps, so the output is canonical: a name-sorted order that does
     * not depend on registration (or shard construction) order.
     */
    void dump(std::ostream &os) const;

    /** Reset every statistic to zero. */
    void resetAll();

    /** Capture counter and average state (see StatSnapshot). */
    StatSnapshot snapshot() const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace ltp

#endif // LTP_SIM_STATS_HH
