#include "workload/generators.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace tsoper
{

namespace
{

/** Per-core trace construction helper. */
class TraceBuilder
{
  public:
    TraceBuilder(Trace &trace, CoreId core, const Profile &p, Rng &rng)
        : trace_(trace), core_(core), p_(p), rng_(rng)
    {
    }

    void
    compute()
    {
        const auto cycles = static_cast<std::uint32_t>(
            rng_.range(p_.computeMin, std::max(p_.computeMin,
                                               p_.computeMax)));
        trace_.push_back({OpType::Compute, 0, cycles});
    }

    void
    load(Addr a)
    {
        trace_.push_back({OpType::Load, a, 0});
        ++memOps_;
    }

    void
    store(Addr a)
    {
        trace_.push_back({OpType::Store, a, 0});
        ++memOps_;
    }

    void
    lockAcq(unsigned l)
    {
        trace_.push_back({OpType::LockAcq, layout::lockAddr(l), l});
    }

    void
    lockRel(unsigned l)
    {
        trace_.push_back({OpType::LockRel, layout::lockAddr(l), l});
    }

    void
    barrier(unsigned b)
    {
        trace_.push_back({OpType::Barrier, layout::barrierAddr(b), b});
    }

    Addr
    privateWord()
    {
        // Mix sequential bursts with random jumps for spatial locality.
        if (burstLeft_ == 0) {
            privCursor_ = rng_.below(p_.privateWords);
            burstLeft_ = rng_.burst(0.7, p_.burstMax);
        }
        --burstLeft_;
        privCursor_ = (privCursor_ + 1) % p_.privateWords;
        return layout::privateAddr(core_, privCursor_);
    }

    Addr
    sharedWord(std::uint64_t index)
    {
        return layout::sharedAddr(index % p_.sharedWords);
    }

    Addr
    randomSharedWord()
    {
        return layout::sharedAddr(rng_.below(p_.sharedWords));
    }

    std::uint64_t memOps() const { return memOps_; }

  private:
    Trace &trace_;
    CoreId core_;
    const Profile &p_;
    Rng &rng_;
    std::uint64_t privCursor_ = 0;
    unsigned burstLeft_ = 0;
    std::uint64_t memOps_ = 0;
};

/** Memory ops per core at @p scale (generate() checked it), at least
 *  200. */
unsigned
scaledOps(const Profile &p, double scale)
{
    return std::max(200u, static_cast<unsigned>(p.opsPerCore * scale));
}

void
genStencil(Workload &w, const Profile &p, unsigned numCores,
           std::uint64_t seed, double scale)
{
    const unsigned ops = scaledOps(p, scale);
    // Reduction accumulators (one per lock) live past the grid blocks.
    const std::uint64_t gridWords =
        p.sharedWords > p.numLocks * 8 ? p.sharedWords - p.numLocks * 8
                                       : p.sharedWords;
    const std::uint64_t block =
        std::max<std::uint64_t>(16, gridWords / numCores);
    const unsigned phases =
        std::max(1u, ops / std::max(1u, p.opsPerPhase));
    for (CoreId c = 0; c < static_cast<CoreId>(numCores); ++c) {
        Rng rng(seed * 0x9e37 + static_cast<std::uint64_t>(c) + 1);
        TraceBuilder b(w.perCore[c], c, p, rng);
        const std::uint64_t base = block * static_cast<std::uint64_t>(c);
        std::uint64_t cursor = 0;
        for (unsigned ph = 0; ph < phases; ++ph) {
            for (unsigned i = 0; i < p.opsPerPhase / 3; ++i) {
                // Read the west neighbour; some reads reach into the
                // preceding core's block near *its* sweep position —
                // the halo exchange of a real grid decomposition, which
                // hits lines the neighbour wrote moments ago.
                std::uint64_t west = base + (cursor + block - 1) % block;
                if (rng.chance(0.08)) {
                    const std::uint64_t prevBase =
                        (base + block * (numCores - 1)) %
                        (block * numCores);
                    west = prevBase +
                           (cursor + block - rng.below(16)) % block;
                }
                b.load(b.sharedWord(west));
                b.load(b.sharedWord(base + cursor));
                b.store(b.sharedWord(base + cursor));
                b.compute();
                cursor = (cursor + 1) % block;
            }
            // End-of-phase global reductions: a burst of tiny
            // lock-protected critical sections, each one store to a
            // shared accumulator.  Under SFR persistency this yields
            // the paper's bimodal distribution for ocean_cp (§V-D /
            // Fig. 15): a mass of 1-store SFRs from the critical
            // sections next to a few huge SFRs from the free-running
            // phase bodies.
            for (unsigned l = 0; l < p.numLocks; ++l) {
                if (!rng.chance(p.lockProb * 3))
                    continue;
                const std::uint64_t acc = gridWords + l * 8;
                b.lockAcq(l);
                b.load(b.sharedWord(acc));
                b.store(b.sharedWord(acc));
                b.lockRel(l);
            }
            b.barrier(ph % 4);
        }
    }
    w.numBarriers = 4;
    w.numLocks = p.numLocks;
}

void
genScatter(Workload &w, const Profile &p, unsigned numCores,
           std::uint64_t seed, double scale)
{
    const unsigned ops = scaledOps(p, scale);
    const unsigned phases =
        std::max(1u, ops / std::max(1u, p.opsPerPhase));
    for (CoreId c = 0; c < static_cast<CoreId>(numCores); ++c) {
        Rng rng(seed * 0xabcd + static_cast<std::uint64_t>(c) + 1);
        TraceBuilder b(w.perCore[c], c, p, rng);
        for (unsigned ph = 0; ph < phases; ++ph) {
            for (unsigned i = 0; i < p.opsPerPhase / 2; ++i) {
                b.load(b.privateWord());
                if (rng.chance(p.writeFrac * 2.0))
                    b.store(b.randomSharedWord());
                else
                    b.load(b.randomSharedWord());
                if (rng.chance(0.3))
                    b.compute();
            }
            b.barrier(ph % 4);
        }
    }
    w.numBarriers = 4;
}

void
genInterleaved(Workload &w, const Profile &p, unsigned numCores,
               std::uint64_t seed, double scale)
{
    // lu_ncb-style: word-interleaved ownership, so adjacent cores write
    // adjacent words of the *same* cacheline (communication through
    // false sharing at line granularity).
    const unsigned ops = scaledOps(p, scale);
    const unsigned phases =
        std::max(1u, ops / std::max(1u, p.opsPerPhase));
    for (CoreId c = 0; c < static_cast<CoreId>(numCores); ++c) {
        Rng rng(seed * 0x1357 + static_cast<std::uint64_t>(c) + 1);
        TraceBuilder b(w.perCore[c], c, p, rng);
        std::uint64_t cursor = static_cast<std::uint64_t>(c);
        for (unsigned ph = 0; ph < phases; ++ph) {
            for (unsigned i = 0; i < p.opsPerPhase / 2; ++i) {
                b.load(b.sharedWord(cursor));
                b.store(b.sharedWord(cursor));
                if (rng.chance(0.2))
                    b.compute();
                cursor = (cursor + numCores) % p.sharedWords;
            }
            b.barrier(ph % 4);
        }
    }
    w.numBarriers = 4;
}

void
genTaskQueue(Workload &w, const Profile &p, unsigned numCores,
             std::uint64_t seed, double scale)
{
    const unsigned ops = scaledOps(p, scale);
    const unsigned queueLocks = std::max(1u, p.numLocks / 4);
    for (CoreId c = 0; c < static_cast<CoreId>(numCores); ++c) {
        Rng rng(seed * 0x7f31 + static_cast<std::uint64_t>(c) + 1);
        TraceBuilder b(w.perCore[c], c, p, rng);
        while (b.memOps() < ops) {
            // Pop a task from a shared queue under a lock.
            const unsigned ql =
                static_cast<unsigned>(rng.below(queueLocks));
            b.lockAcq(ql);
            const std::uint64_t task = rng.below(p.sharedWords / 8) * 8;
            b.load(b.sharedWord(task));
            b.store(b.sharedWord(task));
            b.lockRel(ql);
            // Process: shared reads + private work.
            const unsigned work = rng.burst(0.8, 24);
            for (unsigned i = 0; i < work; ++i) {
                if (rng.chance(p.sharedFrac))
                    b.load(b.sharedWord(task + 1 + rng.below(8)));
                else if (rng.chance(p.writeFrac))
                    b.store(b.privateWord());
                else
                    b.load(b.privateWord());
                if (rng.chance(0.4))
                    b.compute();
            }
            // Publish a result under a result lock sometimes.
            if (rng.chance(p.lockProb)) {
                const unsigned rl = queueLocks +
                    static_cast<unsigned>(
                        rng.below(std::max(1u, p.numLocks - queueLocks)));
                b.lockAcq(rl);
                b.store(b.randomSharedWord());
                b.lockRel(rl);
            }
        }
    }
    w.numLocks = p.numLocks;
}

void
genPipeline(Workload &w, const Profile &p, unsigned numCores,
            std::uint64_t seed, double scale)
{
    // Stage c consumes from ring buffer c-1 and produces into ring
    // buffer c; buffers are lock-guarded regions of the shared space.
    const unsigned ops = scaledOps(p, scale);
    const std::uint64_t ringWords =
        std::max<std::uint64_t>(64, p.sharedWords / numCores);
    for (CoreId c = 0; c < static_cast<CoreId>(numCores); ++c) {
        Rng rng(seed * 0x5bd1 + static_cast<std::uint64_t>(c) + 1);
        TraceBuilder b(w.perCore[c], c, p, rng);
        const unsigned inLock = static_cast<unsigned>(
            (c + numCores - 1) % numCores);
        const unsigned outLock = static_cast<unsigned>(c);
        const std::uint64_t inBase = ringWords * inLock;
        const std::uint64_t outBase = ringWords * outLock;
        std::uint64_t cursor = 0;
        while (b.memOps() < ops) {
            const unsigned itemWords =
                1 + static_cast<unsigned>(rng.below(6));
            if (c != 0) {
                b.lockAcq(inLock);
                for (unsigned i = 0; i < itemWords; ++i)
                    b.load(b.sharedWord(inBase + (cursor + i) % ringWords));
                b.lockRel(inLock);
            } else {
                for (unsigned i = 0; i < itemWords; ++i)
                    b.load(b.privateWord());
            }
            b.compute();
            b.lockAcq(outLock);
            for (unsigned i = 0; i < itemWords; ++i)
                b.store(b.sharedWord(outBase + (cursor + i) % ringWords));
            b.lockRel(outLock);
            cursor = (cursor + itemWords) % ringWords;
            if (rng.chance(p.writeFrac))
                b.store(b.privateWord());
        }
    }
    w.numLocks = numCores;
}

void
genPrivateCompute(Workload &w, const Profile &p, unsigned numCores,
                  std::uint64_t seed, double scale)
{
    const unsigned ops = scaledOps(p, scale);
    const unsigned phases = std::max(
        1u, ops / std::max(1u, p.opsPerPhase));
    for (CoreId c = 0; c < static_cast<CoreId>(numCores); ++c) {
        Rng rng(seed * 0x2545 + static_cast<std::uint64_t>(c) + 1);
        TraceBuilder b(w.perCore[c], c, p, rng);
        for (unsigned ph = 0; ph < phases; ++ph) {
            for (unsigned i = 0; i < p.opsPerPhase; ++i) {
                if (rng.chance(p.sharedFrac)) {
                    if (rng.chance(p.writeFrac))
                        b.store(b.randomSharedWord());
                    else
                        b.load(b.randomSharedWord());
                } else if (rng.chance(p.writeFrac)) {
                    b.store(b.privateWord());
                } else {
                    b.load(b.privateWord());
                }
                if (rng.chance(0.5))
                    b.compute();
            }
            b.barrier(ph % 2);
        }
    }
    w.numBarriers = 2;
}

void
genLockGrid(Workload &w, const Profile &p, unsigned numCores,
            std::uint64_t seed, double scale)
{
    const unsigned ops = scaledOps(p, scale);
    for (CoreId c = 0; c < static_cast<CoreId>(numCores); ++c) {
        Rng rng(seed * 0x94d0 + static_cast<std::uint64_t>(c) + 1);
        TraceBuilder b(w.perCore[c], c, p, rng);
        while (b.memOps() < ops) {
            const std::uint64_t cell = rng.below(p.sharedWords / 4) * 4;
            const unsigned lock = static_cast<unsigned>(
                cell / 4 % p.numLocks);
            b.lockAcq(lock);
            b.load(b.sharedWord(cell));
            b.load(b.sharedWord(cell + 1));
            b.store(b.sharedWord(cell));
            if (rng.chance(0.5))
                b.store(b.sharedWord(cell + 1));
            b.lockRel(lock);
            const unsigned priv = rng.burst(0.6, 12);
            for (unsigned i = 0; i < priv; ++i) {
                if (rng.chance(p.writeFrac))
                    b.store(b.privateWord());
                else
                    b.load(b.privateWord());
            }
            b.compute();
        }
    }
    w.numLocks = p.numLocks;
}

} // namespace

Workload
generate(const Profile &p, unsigned numCores, std::uint64_t seed,
         double scale)
{
    if (!validScale(scale))
        tsoper_fatal("scale must be finite and in (0, ", maxScale,
                     "], got ", scale);
    Workload w;
    w.name = p.name;
    w.perCore.resize(numCores);
    switch (p.kernel) {
      case Kernel::Stencil:
        genStencil(w, p, numCores, seed, scale);
        break;
      case Kernel::Scatter:
        genScatter(w, p, numCores, seed, scale);
        break;
      case Kernel::Interleaved:
        genInterleaved(w, p, numCores, seed, scale);
        break;
      case Kernel::TaskQueue:
        genTaskQueue(w, p, numCores, seed, scale);
        break;
      case Kernel::Pipeline:
        genPipeline(w, p, numCores, seed, scale);
        break;
      case Kernel::PrivateCompute:
        genPrivateCompute(w, p, numCores, seed, scale);
        break;
      case Kernel::LockGrid:
        genLockGrid(w, p, numCores, seed, scale);
        break;
    }
    return w;
}

Workload
generateByName(const std::string &name, unsigned numCores,
               std::uint64_t seed, double scale)
{
    return generate(profileByName(name), numCores, seed, scale);
}

std::vector<std::string>
benchmarkNames()
{
    std::vector<std::string> names;
    for (const Profile &p : allProfiles())
        names.push_back(p.name);
    return names;
}

const Profile *
findProfile(const std::string &name)
{
    for (const Profile &p : allProfiles())
        if (p.name == name)
            return &p;
    return nullptr;
}

const Profile &
profileByName(const std::string &name)
{
    if (const Profile *p = findProfile(name))
        return *p;
    tsoper_fatal("unknown benchmark profile: ", name);
}

} // namespace tsoper
