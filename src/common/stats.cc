#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/json.hh"

namespace fp::common {

StatGroup::StatGroup(std::string name) : _name(std::move(name))
{
    MetricsRegistry::instance().add(this);
}

StatGroup::~StatGroup()
{
    MetricsRegistry::instance().remove(this);
}

void
Distribution::sample(double v, std::uint64_t weight)
{
    if (_count == 0) {
        _min = v;
        _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    _count += weight;
    _sum += v * weight;
    _sum_sq += v * v * weight;

    if (v < _lo) {
        _underflow += weight;
    } else if (v >= _hi) {
        _overflow += weight;
    } else {
        auto idx = static_cast<std::size_t>((v - _lo) / _bucket_width);
        idx = std::min(idx, _buckets.size() - 1);
        _buckets[idx] += weight;
    }
}

void
Distribution::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _underflow = _overflow = _count = 0;
    _sum = _sum_sq = 0.0;
    _min = _max = 0.0;
}

double
Distribution::variance() const
{
    if (_count < 2)
        return 0.0;
    double n = static_cast<double>(_count);
    double m = _sum / n;
    return std::max(0.0, _sum_sq / n - m * m);
}

void
Histogram::sample(double v, std::uint64_t weight)
{
    // Bucket i covers [edges[i], edges[i+1]); values below edges[0] are
    // clamped into bucket 0; the final bucket is unbounded above.
    std::size_t idx = 0;
    auto it = std::upper_bound(_edges.begin(), _edges.end(), v);
    if (it != _edges.begin())
        idx = static_cast<std::size_t>(it - _edges.begin()) - 1;
    if (_total == 0) {
        _min = v;
        _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    _counts[idx] += weight;
    _total += weight;
}

void
Histogram::reset()
{
    std::fill(_counts.begin(), _counts.end(), 0);
    _total = 0;
    _min = _max = 0.0;
}

double
Histogram::percentile(double p) const
{
    if (_total == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 1.0);
    double target = p * static_cast<double>(_total);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < _counts.size(); ++i) {
        if (_counts[i] == 0)
            continue;
        double next = static_cast<double>(cum + _counts[i]);
        if (next >= target) {
            // Interpolate within bucket i, bounded by the observed
            // sample range (the last bucket has no upper edge).
            double lo = std::max(_edges[i], _min);
            double hi = i + 1 < _edges.size()
                ? std::min(_edges[i + 1], _max) : _max;
            if (hi < lo)
                hi = lo;
            double frac = (target - static_cast<double>(cum))
                / static_cast<double>(_counts[i]);
            double v = lo + frac * (hi - lo);
            return std::min(std::max(v, _min), _max);
        }
        cum += _counts[i];
    }
    return _max;
}

void
StatGroup::registerScalar(const std::string &name, const Scalar *stat,
                          const std::string &desc)
{
    fp_assert(!_scalars.count(name), "duplicate scalar stat: ", name);
    _scalars[name] = Named{desc, stat};
}

void
StatGroup::registerAverage(const std::string &name, const Average *stat,
                           const std::string &desc)
{
    fp_assert(!_averages.count(name), "duplicate average stat: ", name);
    _averages[name] = Named{desc, stat};
}

void
StatGroup::registerDistribution(const std::string &name,
                                const Distribution *stat,
                                const std::string &desc)
{
    fp_assert(!_distributions.count(name),
              "duplicate distribution stat: ", name);
    _distributions[name] = Named{desc, stat};
}

void
StatGroup::registerHistogram(const std::string &name, const Histogram *stat,
                             const std::string &desc)
{
    fp_assert(!_histograms.count(name),
              "duplicate histogram stat: ", name);
    _histograms[name] = Named{desc, stat};
}

double
StatGroup::scalarValue(const std::string &name) const
{
    auto it = _scalars.find(name);
    fp_assert(it != _scalars.end(), "unknown scalar stat: ", _name, ".",
              name);
    return static_cast<const Scalar *>(it->second.stat)->value();
}

double
StatGroup::averageValue(const std::string &name) const
{
    auto it = _averages.find(name);
    fp_assert(it != _averages.end(), "unknown average stat: ", _name, ".",
              name);
    return static_cast<const Average *>(it->second.stat)->mean();
}

bool
StatGroup::hasScalar(const std::string &name) const
{
    return _scalars.count(name) > 0;
}

void
StatGroup::dump(std::ostream &os) const
{
    auto emit = [&](const std::string &name, double value,
                    const std::string &desc) {
        os << std::left << std::setw(44) << (_name + "." + name)
           << std::right << std::setw(16) << value;
        if (!desc.empty())
            os << "  # " << desc;
        os << '\n';
    };

    for (const auto &[name, named] : _scalars)
        emit(name, static_cast<const Scalar *>(named.stat)->value(),
             named.desc);
    for (const auto &[name, named] : _averages)
        emit(name, static_cast<const Average *>(named.stat)->mean(),
             named.desc);
    for (const auto &[name, named] : _distributions) {
        const auto *dist = static_cast<const Distribution *>(named.stat);
        emit(name + ".mean", dist->mean(), named.desc);
        emit(name + ".count", static_cast<double>(dist->count()), "");
    }
    for (const auto &[name, named] : _histograms) {
        const auto *hist = static_cast<const Histogram *>(named.stat);
        emit(name + ".total", static_cast<double>(hist->total()),
             named.desc);
        for (std::size_t i = 0; i < hist->edges().size(); ++i) {
            std::ostringstream bucket;
            bucket << name << '[' << hist->edges()[i] << ']';
            emit(bucket.str(), static_cast<double>(hist->counts()[i]),
                 "");
        }
    }
}

void
StatGroup::dumpJson(JsonWriter &json) const
{
    json.beginObject();
    json.kv("name", _name);

    json.key("scalars");
    json.beginObject();
    for (const auto &[name, named] : _scalars) {
        json.key(name);
        json.beginObject();
        json.kv("value", static_cast<const Scalar *>(named.stat)->value());
        if (!named.desc.empty())
            json.kv("desc", named.desc);
        json.endObject();
    }
    json.endObject();

    json.key("averages");
    json.beginObject();
    for (const auto &[name, named] : _averages) {
        const auto *avg = static_cast<const Average *>(named.stat);
        json.key(name);
        json.beginObject();
        json.kv("mean", avg->mean());
        json.kv("sum", avg->sum());
        json.kv("count", avg->count());
        if (!named.desc.empty())
            json.kv("desc", named.desc);
        json.endObject();
    }
    json.endObject();

    json.key("distributions");
    json.beginObject();
    for (const auto &[name, named] : _distributions) {
        const auto *dist = static_cast<const Distribution *>(named.stat);
        json.key(name);
        json.beginObject();
        json.kv("count", dist->count());
        json.kv("mean", dist->mean());
        json.kv("variance", dist->variance());
        json.kv("min", dist->min());
        json.kv("max", dist->max());
        json.kv("underflow", dist->underflow());
        json.kv("overflow", dist->overflow());
        json.key("bucket_lo");
        json.beginArray();
        for (std::size_t i = 0; i < dist->buckets().size(); ++i)
            json.value(dist->bucketLow(i));
        json.endArray();
        json.key("buckets");
        json.beginArray();
        for (std::uint64_t b : dist->buckets())
            json.value(b);
        json.endArray();
        if (!named.desc.empty())
            json.kv("desc", named.desc);
        json.endObject();
    }
    json.endObject();

    json.key("histograms");
    json.beginObject();
    for (const auto &[name, named] : _histograms) {
        const auto *hist = static_cast<const Histogram *>(named.stat);
        json.key(name);
        json.beginObject();
        json.kv("total", hist->total());
        json.key("edges");
        json.beginArray();
        for (double e : hist->edges())
            json.value(e);
        json.endArray();
        json.key("counts");
        json.beginArray();
        for (std::uint64_t c : hist->counts())
            json.value(c);
        json.endArray();
        json.kv("min", hist->min());
        json.kv("max", hist->max());
        json.kv("p50", hist->percentile(0.50));
        json.kv("p90", hist->percentile(0.90));
        json.kv("p95", hist->percentile(0.95));
        json.kv("p99", hist->percentile(0.99));
        if (!named.desc.empty())
            json.kv("desc", named.desc);
        json.endObject();
    }
    json.endObject();

    json.endObject();
}

MetricsRegistry &
MetricsRegistry::instance()
{
    // Membership is guarded by the registry's own fp::Mutex.
    // fp-lint: allow(global-state) internally synchronized
    static MetricsRegistry registry;
    return registry;
}

std::vector<const StatGroup *>
MetricsRegistry::groups() const
{
    fp::MutexLock lock(_mu);
    return _groups;
}

void
MetricsRegistry::add(const StatGroup *group)
{
    fp::MutexLock lock(_mu);
    _groups.push_back(group);
}

void
MetricsRegistry::remove(const StatGroup *group)
{
    fp::MutexLock lock(_mu);
    auto it = std::find(_groups.begin(), _groups.end(), group);
    if (it != _groups.end())
        _groups.erase(it);
    // Free the list with its last group, so each run grows it from
    // empty and a run's heap-allocation count does not depend on what
    // ran before it in the process.
    if (_groups.empty())
        std::vector<const StatGroup *>().swap(_groups);
}

void
MetricsRegistry::dumpJson(JsonWriter &json) const
{
    // The membership lock is held across the walk so groups cannot be
    // torn down mid-dump; each group's contents are read unlocked (see
    // the class comment: groups are confined to their owning thread).
    fp::MutexLock lock(_mu);
    json.beginArray();
    for (const StatGroup *group : _groups)
        group->dumpJson(json);
    json.endArray();
}

} // namespace fp::common
