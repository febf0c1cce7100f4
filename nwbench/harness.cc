/**
 * @file
 * nwbench harness: runs one benchmark workload through the simulator's
 * public layer entry points and prints its metrics (see README.md).
 *
 *     nwbench run --workload NAME --seed N --seconds S --trace 0|1
 *                 --work-dir DIR
 *     nwbench selftest
 *
 * `run` prints a human-readable report followed, as its last line, by
 * one JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones, measured untraced;
 * with --trace 1 the same untraced measurement is followed by a traced
 * in-process pass whose spans give the per-layer metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "asm/textasm.hh"
#include "cfg/loader.hh"
#include "common/error.hh"
#include "exp/campaign.hh"
#include "exp/configs.hh"
#include "exp/wire.hh"
#include "func/superblock.hh"
#include "isa/encode.hh"
#include "sample/aggregate.hh"
#include "sample/controller.hh"
#include "trace.hh"
#include "workloads/workload.hh"

namespace nwbench
{
namespace
{

using namespace nwsim;
namespace fs = std::filesystem;

const std::vector<std::string> kWorkloads = {"deepff-sampled",
                                             "sweep1000-fork"};

/** The paper's four machines, which deepff-sampled runs every kernel on. */
const std::vector<std::string> kSpecs = {"baseline", "packing",
                                         "packing-replay", "issue8"};

const char *const kSweepFile = "configs/sweep-1000.cfg";

double
secondsSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

// ---- host measurements ---------------------------------------------

/** CPU time and peak RSS of this process and its reaped children. */
struct Usage
{
    double cpuMs = 0.0;
    double sysMs = 0.0;
    double selfRssMb = 0.0;
    double childRssMb = 0.0;
};

double
tvMs(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
}

Usage
usageNow()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    Usage u;
    u.sysMs = tvMs(self.ru_stime) + tvMs(kids.ru_stime);
    u.cpuMs = tvMs(self.ru_utime) + tvMs(kids.ru_utime) + u.sysMs;
    u.selfRssMb = static_cast<double>(self.ru_maxrss) / 1024.0;
    u.childRssMb = static_cast<double>(kids.ru_maxrss) / 1024.0;
    return u;
}

/** Ticks of the aggregate `cpu` line of /proc/stat. */
struct CpuTicks
{
    double steal = 0.0;
    double idle = 0.0; ///< idle and iowait
    double total = 0.0;
};

/**
 * The share of the time the vCPUs wanted to run between @p a and @p b
 * that the hypervisor gave to other guests. Steal accrues only to a
 * vCPU that has work, so this is the share of its own running time the
 * benchmark lost to the host.
 */
double
stolenShare(const CpuTicks &a, const CpuTicks &b)
{
    const double steal = b.steal - a.steal;
    const double wanted = (b.total - a.total) - (b.idle - a.idle);
    return wanted > 0.0 ? steal / wanted : 0.0;
}

CpuTicks
readCpuTicks()
{
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    for (int i = 0; i < 8; ++i) {
        double v = 0.0;
        if (!(in >> v))
            break;
        t.total += v;
        if (i == 3 || i == 4)
            t.idle += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

// ---- statistics ----------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest reported percentile that leaves at least ten of @p n
 * samples beyond it: p80 for 56 jobs, p99 for 1000.
 */
double
tailPercent(size_t n)
{
    for (double p : {99.0, 95.0, 90.0, 80.0}) {
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
            return p;
    }
    return 50.0;
}

/** Nearest-rank percentile @p p of @p v. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---- correctness gate ----------------------------------------------

u64
fnv1a(const std::string &bytes, u64 h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * A digest of every simulated statistic of @p o, or 0 when the job
 * failed: FNV-1a over the outcome's wire encoding with the labels, the
 * timing, and the host-only decode-cache and superblock counters
 * cleared. Two successful outcomes have equal digests iff they agree on
 * every simulated field, up to a 64-bit hash collision. Passes keep
 * digests, not encodings, so the harness does not grow with the pass
 * count (the fork executor's jobs copy it).
 */
u64
statDigest(const exp::JobOutcome &o)
{
    if (!o.ok)
        return 0;
    exp::JobOutcome n = o;
    n.configSpec.clear();
    n.result.configName.clear();
    n.wallSeconds = 0.0;
    n.attempts = 0;
    n.result.decodeCache = {};
    n.result.superblock = {};
    return std::max<u64>(fnv1a(exp::packJobOutcome(n)), 1);
}

std::vector<u64>
statDigests(const exp::ResultSet &rs)
{
    std::vector<u64> digests;
    for (const exp::JobOutcome &o : rs.outcomes())
        digests.push_back(statDigest(o));
    return digests;
}

/**
 * Jobs of @p run that failed or differ from the same-index job of
 * @p reference; each one is named on the report.
 */
size_t
gateFailures(const std::vector<u64> &run, const std::vector<u64> &reference,
             const std::vector<exp::SimJob> &jobs, const std::string &what)
{
    size_t failed = 0;
    for (size_t i = 0; i < run.size(); ++i) {
        if (run[i] != 0 && run[i] == reference[i])
            continue;
        ++failed;
        std::cout << "gate: " << what << jobs[i].label() << " "
                  << (run[i] == 0 ? "failed" : "differs from its reference")
                  << "\n";
    }
    return failed;
}

u64
splitmix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

// ---- workloads -----------------------------------------------------

/** One workload's job list and how the campaign runs it. */
struct Plan
{
    exp::Campaign campaign;
    exp::CampaignOptions copts;
};

/** The deepff probe schedule: fixed for seed 0, `rand:` otherwise. */
std::string
deepffSchedule(u64 seed)
{
    std::string s = "+sample=400000:2000:8000";
    if (seed != 0)
        s += ":rand:" + std::to_string(splitmix64(seed) >> 33);
    return s;
}

/**
 * The sweep file for @p seed: the shipped 1000-scenario sweep for seed
 * 0; otherwise a copy under @p work_dir whose wgen seeds are offset by
 * a value derived from @p seed, so every program is fresh.
 */
std::string
sweepFileFor(u64 seed, const std::string &work_dir)
{
    if (seed == 0)
        return kSweepFile;
    std::ifstream in(kSweepFile);
    if (!in)
        throw BadInputError(std::string("cannot read ") + kSweepFile);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    const std::string key = "wgen:seed=";
    const std::string with =
        key + std::to_string((splitmix64(seed) >> 34) + 1) + "+";
    size_t count = 0;
    for (size_t at = text.find(key); at != std::string::npos;
         at = text.find(key, at + with.size())) {
        text.replace(at, key.size(), with);
        ++count;
    }
    if (count == 0)
        throw BadInputError(std::string(kSweepFile) +
                            " has no wgen:seed= workloads to reseed");
    const std::string path =
        work_dir + "/sweep-seed" + std::to_string(seed) + ".cfg";
    std::ofstream(path) << text;
    return path;
}

/**
 * Build @p workload's campaign. @p reference appends `+nodecodecache`
 * to every spec: the reference path the gate compares against.
 */
Plan
makePlan(const std::string &workload, u64 seed, const std::string &sweep,
         bool reference)
{
    const std::string ref = reference ? "+nodecodecache" : "";
    Plan plan;
    plan.copts.maxAttempts = 1;
    plan.copts.executor = exp::ExecutorKind::Thread;
    plan.copts.jobs = reference ? 2 : 1;

    if (workload == "sweep1000-fork") {
        const cfg::SweepPlan sp = cfg::loadSweepFile(sweep);
        std::vector<std::string> machines;
        for (const std::string &m : sp.machines)
            machines.push_back(m + ref);
        plan.campaign =
            exp::Campaign::sweepGrid(sp.workloads, machines, RunOptions{});
        if (!reference) {
            plan.copts.executor = exp::ExecutorKind::Fork;
            plan.copts.jobs = 2;
        }
        return plan;
    }

    std::vector<std::string> names;
    for (const Workload &w : allWorkloads())
        names.push_back(w.name);
    // A budget past every kernel's HALT: each job covers its whole
    // stream.
    RunOptions opts;
    opts.warmupInsts = 0;
    opts.measureInsts = 100000000;
    std::vector<std::string> specs;
    for (const std::string &s : kSpecs)
        specs.push_back(s + deepffSchedule(seed) + ref);
    plan.campaign = exp::Campaign::grid(names, specs, opts);
    return plan;
}

/**
 * Build every distinct program of @p campaign once: the set-up step
 * that checks each program assembles before the first simulated
 * instruction. Each job still builds its own copy, inside its in-job
 * time, as the campaign's job path does.
 */
void
buildPrograms(const exp::Campaign &campaign)
{
    std::set<std::string> built;
    for (const exp::SimJob &job : campaign.jobs()) {
        if (!built.insert(job.workload).second)
            continue;
        if (job.asmText.empty())
            cfg::workloadProgram(job.workload);
        else
            assembleText(job.asmText);
    }
}

// ---- untraced measurement --------------------------------------------

/** One complete untraced run of a workload's campaign. */
struct Pass
{
    double wall = 0.0;
    /** Wall time less the share the hypervisor stole (stolenShare). */
    double runWall = 0.0;
    size_t jobs = 0;
    double detailedInsts = 0.0;
    double streamInsts = 0.0;
    double inJobSeconds = 0.0;
    double cpuMs = 0.0;
    double sysMs = 0.0;
    double journalBytes = 0.0;
    std::vector<double> jobMs; ///< each job's run time
    std::vector<u64> digests;
};

// ---- traced run ------------------------------------------------------

/** Work counted at the layer boundaries of the traced run. */
struct Work
{
    u64 asmInsts = 0;
    u64 ffInsts = 0;
    u64 runCommits = 0;
    u64 runCycles = 0;
    CacheStats l1i, l1d;
};

Program
tracedProgram(Tracer &t, const exp::SimJob &job, Work &w)
{
    Tracer::Scope s(t, "asm.build");
    Program p = job.asmText.empty() ? workloadByName(job.workload).program()
                                    : assembleText(job.asmText);
    w.asmInsts += p.segments.front().bytes.size() / sizeof(MachineWord);
    return p;
}

/** One detailed `run` call, with its commits, cycles and L1 traffic. */
u64
tracedRun(Tracer &t, OutOfOrderCore &core, u64 insts, Work &w)
{
    const CacheStats i0 = core.memSystem().l1i().stats();
    const CacheStats d0 = core.memSystem().l1d().stats();
    const Cycle c0 = core.now();
    u64 committed;
    {
        Tracer::Scope s(t, "pipeline.run");
        committed = core.run(insts);
    }
    w.runCommits += committed;
    w.runCycles += core.now() - c0;
    const CacheStats &i1 = core.memSystem().l1i().stats();
    const CacheStats &d1 = core.memSystem().l1d().stats();
    w.l1i.accesses += i1.accesses - i0.accesses;
    w.l1i.misses += i1.misses - i0.misses;
    w.l1d.accesses += d1.accesses - d0.accesses;
    w.l1d.misses += d1.misses - d0.misses;
    return committed;
}

/** Machine state of one traced job, torn down inside spans. */
struct Machine
{
    std::unique_ptr<SparseMemory> memory;
    std::unique_ptr<OutOfOrderCore> core;

    Machine(Tracer &t, const Program &program, const CoreConfig &config)
    {
        {
            Tracer::Scope s(t, "mem.load");
            memory = std::make_unique<SparseMemory>();
            program.load(*memory);
        }
        Tracer::Scope s(t, "pipeline.construct");
        core = std::make_unique<OutOfOrderCore>(config, *memory,
                                                program.entry);
    }

    void
    teardown(Tracer &t)
    {
        {
            Tracer::Scope s(t, "pipeline.teardown");
            core.reset();
        }
        Tracer::Scope s(t, "mem.teardown");
        memory.reset();
    }
};

double
deltaMissRate(const CacheStats &before, const CacheStats &after)
{
    const u64 accesses = after.accesses - before.accesses;
    return accesses ? static_cast<double>(after.misses - before.misses) /
                          static_cast<double>(accesses)
                    : 0.0;
}

/**
 * runSampledProgram's interval schedule driven from outside through
 * drainInFlight, fastForward, run and resetStats, with the offsets of
 * the public sample::sampleOffset. The gate checks that the result
 * reproduces runSampledProgram's.
 */
RunResult
tracedSampled(Tracer &t, const exp::SimJob &job, Work &w)
{
    const Program program = tracedProgram(t, job, w);
    const SampleOptions &s = job.opts.sample;
    Machine m(t, program, job.config);
    OutOfOrderCore &core = *m.core;
    RunResult result;
    {
        Tracer::Scope sched(t, "sample.schedule");
        const u64 budget = job.opts.warmupInsts + job.opts.measureInsts;
        sample::SampleAggregator agg;
        u64 position = 0, period = 0;
        while (!core.done() && position < budget) {
            const u64 sampleAt =
                period * s.periodInsts + sample::sampleOffset(s, period);
            ++period;
            if (sampleAt >= budget)
                break;
            if (sampleAt > position) {
                {
                    Tracer::Scope d(t, "pipeline.drain");
                    core.drainInFlight();
                }
                u64 ffed;
                {
                    Tracer::Scope f(t, "func.ff");
                    ffed = core.fastForward(sampleAt - position);
                }
                position += ffed;
                w.ffInsts += ffed;
                if (core.done())
                    break;
            }
            const u64 warmed = tracedRun(t, core, s.warmupInsts, w);
            const CacheStats l1d0 = core.memSystem().l1d().stats();
            const CacheStats l1i0 = core.memSystem().l1i().stats();
            {
                Tracer::Scope r(t, "pipeline.reset");
                core.resetStats();
            }
            const u64 measured = tracedRun(t, core, s.measureInsts, w);
            position += warmed + measured;
            if (measured == 0)
                break;
            RunResult interval;
            {
                Tracer::Scope c(t, "driver.collect");
                interval =
                    collectRunResult(core, job.workload, job.configSpec);
            }
            Tracer::Scope a(t, "sample.aggregate");
            interval.warmupCommitted = warmed;
            interval.l1dMissRate =
                deltaMissRate(l1d0, core.memSystem().l1d().stats());
            interval.l1iMissRate =
                deltaMissRate(l1i0, core.memSystem().l1i().stats());
            agg.addInterval(interval);
        }
        if (agg.intervals() == 0)
            throw InternalError("traced schedule measured no intervals");
        Tracer::Scope a(t, "sample.aggregate");
        result = agg.aggregate();
        result.workload = job.workload;
        result.configName = job.configSpec;
        result.sample.sampled = true;
        result.sample.intervals = agg.intervals();
        result.sample.streamInsts = position;
        for (size_t i = 0; i < SampleSummary::kNumMetrics; ++i) {
            const sample::MetricEstimate est =
                agg.estimate(static_cast<sample::SampleMetric>(i));
            result.sample.metrics[i] = {est.mean, est.cov(),
                                        est.ciHalfWidth95()};
        }
    }
    result.decodeCache = core.decodeCacheStats();
    result.superblock = core.superblockStats();
    m.teardown(t);
    return result;
}

/** The workload's set-up steps, each behind a span (traced run only). */
void
tracedSetup(Tracer &t, const std::string &workload, const std::string &sweep,
            u64 seed, const exp::Campaign &campaign)
{
    Tracer::Scope root(t, "setup");
    {
        Tracer::Scope s(t, "asm.build");
        buildPrograms(campaign);
    }
    if (workload == "sweep1000-fork") {
        cfg::SweepPlan sp;
        {
            Tracer::Scope s(t, "cfg.sweep_load");
            sp = cfg::loadSweepFile(sweep);
        }
        {
            // loadSweepFile generates these texts too; timed here on
            // their own to split wgen out of the sweep load.
            Tracer::Scope s(t, "cfg.wgen");
            for (const cfg::SweepEntry &e : sp.workloads)
                cfg::generatedWorkloadText(e.name);
        }
        Tracer::Scope s(t, "cfg.resolve");
        for (const std::string &m : sp.machines)
            cfg::resolveMachineSpec(m);
        return;
    }
    Tracer::Scope s(t, "cfg.resolve");
    for (const std::string &spec : kSpecs)
        cfg::resolveMachineSpec(spec + deepffSchedule(seed));
}

// ---- output ----------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, size_t attempted, size_t failed,
            const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name
                  << "\": {\"value\": " << number(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

// ---- the run command -------------------------------------------------

struct Args
{
    std::string workload;
    u64 seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".";
};

int
runBenchmark(const Args &a)
{
    std::cout << "nwbench: workload " << a.workload << ", seed " << a.seed
              << ", " << a.seconds << " s, trace " << a.trace << "\n";
    std::cout << "build: " << NWBENCH_BUILD_TYPE << ", nwsim "
              << NWSIM_VERSION << " (" << sbDispatchKind()
              << " dispatch)" << std::endl; // before any fork
    const std::string sweep = a.workload == "sweep1000-fork"
                                  ? sweepFileFor(a.seed, a.workDir)
                                  : std::string();

    // Set-up, repeated; setup_s is the median, at the slowest pass's
    // speed (below). The repetitions run before every pass, so they
    // sample the host's speed across the run as the passes do.
    std::vector<double> setups;
    std::vector<size_t> setupPass; ///< the pass each repetition precedes
    std::vector<Pass> passes;
    auto setUp = [&] {
        const int64_t t0 = nowNs();
        Plan fresh = makePlan(a.workload, a.seed, sweep, false);
        buildPrograms(fresh.campaign);
        setups.push_back(secondsSince(t0));
        setupPass.push_back(passes.size());
        return fresh;
    };
    const Plan plan = setUp();
    const std::vector<exp::SimJob> &jobs = plan.campaign.jobs();
    const size_t njobs = jobs.size();

    // Untraced passes: whole campaigns, at least three so that each job
    // has a median to take, then more as long as one that takes as long
    // as the last still ends within --seconds. A slow host thus costs
    // fewer passes, not a longer run.
    const CpuTicks ticks0 = readCpuTicks();
    double measured = 0.0;
    while (passes.size() < 3 ||
           measured + passes.back().wall <= a.seconds) {
        const int64_t setup0 = nowNs();
        for (int i = 0; i < 3 || secondsSince(setup0) < 0.1; ++i)
            setUp();
        exp::CampaignOptions copts = plan.copts;
        if (copts.executor == exp::ExecutorKind::Fork) {
            copts.journal = a.workDir + "/sweep.journal";
        }
        const Usage u0 = usageNow();
        const CpuTicks c0 = readCpuTicks();
        const int64_t t0 = nowNs();
        exp::ResultSet rs = plan.campaign.run(copts);
        Pass p;
        p.wall = secondsSince(t0);
        const double kept = 1.0 - stolenShare(c0, readCpuTicks());
        p.runWall = p.wall * kept;
        const Usage u1 = usageNow();
        p.cpuMs = u1.cpuMs - u0.cpuMs;
        p.sysMs = u1.sysMs - u0.sysMs;
        if (!copts.journal.empty()) {
            p.journalBytes = static_cast<double>(fs::file_size(copts.journal));
            fs::remove(copts.journal);
        }
        p.jobs = rs.size();
        for (const exp::JobOutcome &o : rs.outcomes()) {
            p.jobMs.push_back(o.wallSeconds * kept * 1e3);
            p.inJobSeconds += o.wallSeconds;
            if (o.ok) {
                // Every job is sampled: its warmup intervals run in
                // detailed mode too.
                p.detailedInsts += static_cast<double>(
                    o.result.measuredCommitted + o.result.warmupCommitted);
                p.streamInsts +=
                    static_cast<double>(o.result.sample.streamInsts);
            }
        }
        p.digests = statDigests(rs);
        measured += p.wall;
        passes.push_back(std::move(p));
    }
    const CpuTicks ticks1 = readCpuTicks();
    const double steal =
        ratio(ticks1.steal - ticks0.steal, ticks1.total - ticks0.total);
    const Usage end = usageNow();

    // Correctness gate: every job of every pass against its
    // +nodecodecache twin.
    const Plan refPlan = makePlan(a.workload, a.seed, sweep, true);
    const std::vector<u64> ref =
        statDigests(refPlan.campaign.run(refPlan.copts));
    size_t attempted = 0, failed = 0;
    u64 fingerprint = 0xcbf29ce484222325ull;
    for (u64 d : passes[0].digests)
        fingerprint = (fingerprint ^ d) * 0x100000001b3ull;
    for (const Pass &p : passes) {
        attempted += njobs;
        failed += gateFailures(p.digests, ref, jobs, "");
    }

    auto each = [&](auto f) {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back(f(p));
        return median(v);
    };
    // Throughput is read off the slowest pass. The host's speed moves
    // between a loaded state and rarer faster stretches; each run meets
    // the loaded state, so its slowest pass varies least between runs
    // (README.md gives the measured spreads).
    const Pass &slowest = *std::max_element(
        passes.begin(), passes.end(), [](const Pass &x, const Pass &y) {
            return x.runWall < y.runWall;
        });
    // Set-up repetitions are scaled to the slowest pass's speed like the
    // job times below: each by the run time of the slowest pass over that
    // of the pass it precedes.
    std::vector<double> setupS;
    for (size_t i = 0; i < setups.size(); ++i)
        setupS.push_back(setups[i] * slowest.runWall /
                         passes[setupPass[i]].runWall);
    // Per-job percentiles take each job's median over the passes of its
    // run time scaled to the slowest pass's speed. The scaling removes
    // the host's speed changes between passes, which move all jobs of a
    // pass together; the median removes the stalls that hit single jobs
    // (README.md gives the measured spreads).
    std::vector<double> jobMs;
    for (size_t j = 0; j < njobs; ++j) {
        std::vector<double> times;
        for (const Pass &p : passes)
            times.push_back(p.jobMs[j] * slowest.runWall / p.runWall);
        jobMs.push_back(median(times));
    }
    const double tailP = tailPercent(njobs);
    std::cout << "passes: " << passes.size() << " x " << njobs
              << " jobs; job_p50_ms and job_tail_ms (p" << tailP
              << ") are over the " << njobs
              << " jobs' median run times at the slowest pass's speed, the "
                 "other timed metrics are the slowest pass's\n";
    for (size_t i = 0; i < passes.size(); ++i) {
        std::cout << "pass " << i << ": " << number(passes[i].wall)
                  << " s wall, " << number(passes[i].cpuMs)
                  << " ms cpu, " << number(passes[i].sysMs)
                  << " ms sys, run time "
                  << number(passes[i].runWall / passes[i].wall)
                  << " of wall, job p50 " << number(median(passes[i].jobMs))
                  << " ms, p" << tailP << " "
                  << number(percentile(passes[i].jobMs, tailP)) << " ms\n";
    }
    std::cout << "host.steal_share: " << number(steal) << "\n";
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    std::cout << "fingerprint: " << fp << "\n";

    if (!a.trace) {
        const std::vector<Metric> m = {
            {"setup_s", median(setupS), "s"},
            {"detailed_kips", slowest.detailedInsts / slowest.runWall / 1e3,
             "kips"},
            {"effective_kips", slowest.streamInsts / slowest.runWall / 1e3,
             "kips"},
            {"jobs_per_s", slowest.jobs / slowest.runWall, "1/s"},
            {"job_p50_ms", median(jobMs), "ms"},
            {"job_tail_ms", percentile(jobMs, tailP), "ms"},
            {"cpu_ms_per_job", slowest.cpuMs / slowest.jobs, "ms"},
            {"peak_rss_mb", std::max(end.selfRssMb, end.childRssMb), "MB"},
            {"job_ok_ratio",
             ratio(static_cast<double>(attempted - failed),
                   static_cast<double>(attempted)),
             "ratio"},
        };
        printResult(failed == 0, attempted, failed, m);
        return 0;
    }

    // Traced pass: the same jobs in process, serially, with a span
    // around every layer call. Each job also runs untraced on the
    // campaign's in-process path, in alternating order, so host-speed
    // drift cancels out of the tracing overhead.
    Tracer t;
    Work w;
    tracedSetup(t, a.workload, sweep, a.seed, plan.campaign);
    std::vector<RunResult> traced;
    std::vector<double> twinSeconds(njobs);
    auto untraced = [&](size_t i) {
        twinSeconds[i] =
            exp::executeJobWithRetries(jobs[i], i, plan.copts).wallSeconds;
    };
    for (size_t i = 0; i < njobs; ++i) {
        if (i % 2 == 0)
            untraced(i);
        {
            t.beginJob();
            Tracer::Scope root(t, "job");
            traced.push_back(tracedSampled(t, jobs[i], w));
        }
        if (i % 2 == 1)
            untraced(i);
    }
    std::vector<u64> tracedDigests;
    for (size_t i = 0; i < njobs; ++i) {
        exp::JobOutcome o;
        o.workload = jobs[i].workload;
        o.ok = true;
        o.status = exp::JobStatus::Ok;
        o.result = traced[i];
        tracedDigests.push_back(statDigest(o));
    }
    const size_t tracedFailed =
        gateFailures(tracedDigests, ref, jobs, "traced ");
    attempted += njobs;
    failed += tracedFailed;
    const size_t sampledOk = njobs - tracedFailed;

    const std::vector<Span> &spans = t.all();
    const std::vector<int64_t> self = selfTimes(spans);
    // A job's coverage: the time its layer spans cover, over the in-job
    // wall time of its untraced twin on the campaign's job path.
    std::map<std::string, double> selfNs, totalNs;
    std::vector<double> coverage;
    double jobNs = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        selfNs[spans[i].name] += static_cast<double>(self[i]);
        const double dur = static_cast<double>(spans[i].end - spans[i].start);
        totalNs[spans[i].name] += dur;
        if (spans[i].name == "job") {
            jobNs += dur;
            coverage.push_back(
                ratio((dur - static_cast<double>(self[i])) * 1e-9,
                      twinSeconds[coverage.size()]));
        }
    }
    double untracedInJob = 0.0;
    for (double s : twinSeconds)
        untracedInJob += s;
    std::cout << "trace: job coverage median " << number(median(coverage))
              << ", min " << number(*std::min_element(coverage.begin(),
                                                      coverage.end()))
              << " over " << coverage.size() << " jobs\n";
    auto ms = [&](const char *n) { return selfNs[n] * 1e-6; };

    RunResult sum;
    for (const RunResult &r : traced) {
        sum.core.accumulate(r.core);
        sum.gating.accumulate(r.gating);
        sum.packing.accumulate(r.packing);
        sum.bpred.accumulate(r.bpred);
        sum.decodeCache.accumulate(r.decodeCache);
        sum.superblock.accumulate(r.superblock);
        sum.sample.intervals += r.sample.intervals;
        sum.sample.streamInsts += r.sample.streamInsts;
    }
    const double inJob = each([](const Pass &p) { return p.inJobSeconds; });
    const double campaign = each([](const Pass &p) { return p.wall; });
    const double workers = static_cast<double>(plan.copts.jobs);
    const double runNs = selfNs["pipeline.run"];
    const double ffNs = selfNs["func.ff"];
    const double schedNs = totalNs["sample.schedule"];
    const double n = static_cast<double>(njobs);
    const std::vector<Metric> m = {
        {"asm.build_ms", ms("asm.build"), "ms"},
        {"asm.insts", static_cast<double>(w.asmInsts), "count"},
        {"cfg.resolve_ms", ms("cfg.resolve"), "ms"},
        {"cfg.wgen_ms", ms("cfg.wgen"), "ms"},
        {"cfg.sweep_load_ms", ms("cfg.sweep_load"), "ms"},
        {"mem.load_ms", ms("mem.load"), "ms"},
        {"mem.teardown_ms", ms("mem.teardown"), "ms"},
        {"mem.l1i_accesses", static_cast<double>(w.l1i.accesses), "count"},
        {"mem.l1i_miss_rate", w.l1i.missRate(), "ratio"},
        {"mem.l1d_accesses", static_cast<double>(w.l1d.accesses), "count"},
        {"mem.l1d_miss_rate", w.l1d.missRate(), "ratio"},
        {"pipeline.construct_ms", ms("pipeline.construct"), "ms"},
        {"pipeline.teardown_ms", ms("pipeline.teardown"), "ms"},
        {"pipeline.run_s", runNs * 1e-9, "s"},
        {"pipeline.ns_per_commit",
         ratio(runNs, static_cast<double>(w.runCommits)), "ns"},
        {"pipeline.ns_per_cycle",
         ratio(runNs, static_cast<double>(w.runCycles)), "ns"},
        {"pipeline.cycles", static_cast<double>(sum.core.cycles), "count"},
        {"pipeline.committed", static_cast<double>(sum.core.committed),
         "count"},
        {"pipeline.dispatched", static_cast<double>(sum.core.dispatched),
         "count"},
        {"pipeline.squashed", static_cast<double>(sum.core.squashed),
         "count"},
        {"pipeline.window_full_stalls",
         static_cast<double>(sum.core.windowFullStalls), "count"},
        {"pipeline.wrongpath_ratio",
         ratio(static_cast<double>(sum.core.dispatched),
               static_cast<double>(sum.core.committed)),
         "ratio"},
        {"pipeline.drain_ms", ms("pipeline.drain"), "ms"},
        {"func.ff_s", ffNs * 1e-9, "s"},
        {"func.ff_insts", static_cast<double>(w.ffInsts), "count"},
        {"func.ns_per_inst", ratio(ffNs, static_cast<double>(w.ffInsts)),
         "ns"},
        {"func.decode_lookups",
         static_cast<double>(sum.decodeCache.lookups), "count"},
        {"func.decode_hit_rate", sum.decodeCache.hitRate(), "ratio"},
        {"func.sb_formed", static_cast<double>(sum.superblock.formed),
         "count"},
        {"func.sb_entries", static_cast<double>(sum.superblock.entries),
         "count"},
        {"func.sb_coverage",
         ratio(static_cast<double>(sum.superblock.tracedInsts),
               static_cast<double>(w.ffInsts)),
         "ratio"},
        {"func.sb_guard_exit_ratio",
         ratio(static_cast<double>(sum.superblock.guardExits),
               static_cast<double>(sum.superblock.entries)),
         "ratio"},
        {"core.packed_ops", static_cast<double>(sum.packing.packedInsts),
         "count"},
        {"core.replay_trap_ratio",
         ratio(static_cast<double>(sum.packing.replayTraps),
               static_cast<double>(sum.packing.replaySpeculations)),
         "ratio"},
        {"core.gated_share",
         ratio(static_cast<double>(sum.gating.gated16 + sum.gating.gated33),
               static_cast<double>(sum.gating.ops)),
         "ratio"},
        {"bpred.mispredict_rate", sum.bpred.condMispredictRate(), "ratio"},
        {"sample.run_s", schedNs * 1e-9, "s"},
        {"sample.intervals", static_cast<double>(sum.sample.intervals),
         "count"},
        {"sample.stream_insts", static_cast<double>(sum.sample.streamInsts),
         "count"},
        {"sample.detailed_time_share",
         ratio(runNs, schedNs), "ratio"},
        {"sample.verified_share",
         ratio(static_cast<double>(sampledOk), n),
         "ratio"},
        {"driver.collect_ms", ms("driver.collect"), "ms"},
        {"exp.campaign_s", campaign, "s"},
        {"exp.in_job_s", inJob, "s"},
        {"exp.overhead_ms_per_job", (campaign * workers - inJob) / n * 1e3,
         "ms"},
        {"exp.sys_cpu_ms_per_job",
         each([](const Pass &p) { return p.sysMs / p.jobs; }), "ms"},
        {"exp.journal_bytes_per_job",
         each([](const Pass &p) { return p.journalBytes / p.jobs; }),
         "bytes"},
        {"trace.overhead_pct",
         100.0 * ratio(jobNs * 1e-9 - untracedInJob, untracedInJob), "%"},
        {"trace.job_coverage", median(coverage), "ratio"},
        {"trace.spans", static_cast<double>(spans.size()), "count"},
        {"host.steal_share", steal, "ratio"},
    };
    printResult(failed == 0, attempted, failed, m);
    return 0;
}

// ---- self-tests ------------------------------------------------------

int
selftest()
{
    int bad = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
        bad += !ok;
    };

    expect(tailPercent(56) == 80.0, "p80 is the tail at 56 jobs");
    expect(tailPercent(1000) == 99.0, "p99 is the tail at 1000 jobs");
    expect(tailPercent(100) == 90.0, "p90 is the tail at 100 jobs");
    std::vector<double> v;
    for (int i = 1; i <= 56; ++i)
        v.push_back(i);
    expect(percentile(v, 80.0) == 45.0, "nearest-rank p80 of 1..56 is 45");
    expect(median({30, 10, 20}) == 20.0 && median({7}) == 7.0 &&
               median({4, 1, 3, 2}) == 2.5,
           "median of odd and even sample counts");
    // 400 ticks: 300 idle or iowait, 10 stolen of the 100 wanted.
    expect(stolenShare({0, 0, 0}, {10, 300, 400}) == 0.1 &&
               stolenShare({5, 7, 9}, {5, 7, 9}) == 0.0,
           "stolen share is steal over the ticks the vCPUs wanted");

    // root [0,100): children [10,40) and [30,60) overlap, [90,120)
    // overhangs the root; [20,25) is a grandchild inside [10,40).
    const std::vector<Span> tree = {
        {"job", 1, -1, 0, 100},    {"pipeline.run", 1, 0, 10, 40},
        {"func.ff", 1, 0, 30, 60}, {"mem.load", 1, 0, 90, 120},
        {"driver.collect", 1, 1, 20, 25},
    };
    const std::vector<int64_t> self = selfTimes(tree);
    expect(self == std::vector<int64_t>({40, 25, 30, 30, 5}),
           "self times of a synthetic span tree");
    Tracer t;
    {
        t.beginJob();
        Tracer::Scope a(t, "job");
        Tracer::Scope b(t, "pipeline.run");
    }
    expect(t.all().size() == 2 && t.all()[1].parent == 0 &&
               t.all()[1].job == t.all()[0].job,
           "tracer nests spans and shares the job id");

    RunOptions opts;
    opts.warmupInsts = 2000;
    opts.measureInsts = 20000;
    const exp::Campaign c = exp::Campaign::grid(
        {"compress"}, {"baseline", "baseline+nodecodecache", "packing"},
        opts);
    const std::vector<u64> b = statDigests(c.run());
    const std::vector<exp::SimJob> j(3, c.jobs()[0]);
    expect(gateFailures({b[0]}, {b[1]}, j, "") == 0,
           "gate passes a job against its +nodecodecache twin");
    expect(gateFailures({b[0], b[0], 0}, {b[1], b[2], b[1]}, j,
                        "selftest ") == 2,
           "gate counts a job against its packing twin, and a failed "
           "job, as failed");
    return bad ? 1 : 0;
}

int
usage()
{
    std::cerr << "usage: nwbench run --workload NAME --seed N --seconds S"
                 " --trace 0|1 --work-dir DIR\n"
                 "       nwbench selftest\n";
    return 2;
}

int
benchMain(int argc, char **argv)
{
#ifndef NDEBUG
    std::cerr << "nwbench: refusing to measure a build with assertions "
                 "(NDEBUG unset)\n";
    return 3;
#endif
    if (std::strcmp(NWBENCH_BUILD_TYPE, "Release") != 0) {
        std::cerr << "nwbench: refusing to measure a " << NWBENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "selftest")
            return selftest();
        if (cmd != "run")
            return usage();
        Args a;
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string k = argv[i], v = argv[i + 1];
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = v != "0";
            else if (k == "--work-dir")
                a.workDir = v;
            else
                return usage();
        }
        if (std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) ==
            kWorkloads.end()) {
            std::cerr << "nwbench: unknown workload \"" << a.workload
                      << "\"\n";
            return 2;
        }
        return runBenchmark(a);
    } catch (const std::exception &e) {
        std::cerr << "nwbench: " << e.what() << "\n";
        return 1;
    }
}

} // namespace
} // namespace nwbench

int
main(int argc, char **argv)
{
    return nwbench::benchMain(argc, argv);
}
