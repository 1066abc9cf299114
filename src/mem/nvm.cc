#include "mem/nvm.hh"

#include <algorithm>

#include "sim/log.hh"

namespace tsoper
{

Nvm::Nvm(const SystemConfig &cfg, EventQueue &eq, StatsRegistry &stats)
    : ranks_(cfg.nvmRanks), writeLatency_(cfg.nvmWriteLatency),
      readLatency_(cfg.nvmReadLatency),
      writeOccupancy_(cfg.nvmWriteOccupancy),
      readOccupancy_(cfg.nvmReadOccupancy), eq_(eq),
      rankBusyUntil_(cfg.nvmRanks, 0), pending_(cfg.nvmRanks),
      writesIssued_(stats.counter("nvm.writes_issued")),
      writesDone_(stats.counter("nvm.writes_done")),
      reads_(stats.counter("nvm.reads")),
      rankWaitCycles_(stats.counter("nvm.rank_wait_cycles"))
{
}

Cycle
Nvm::write(LineAddr line, const LineWords &words, Cycle earliest,
           WriteDone done)
{
    writesIssued_.inc();
    const unsigned rank = rankOf(line);
    Cycle &busy = rankBusyUntil_[rank];
    const Cycle start = std::max(earliest, busy);
    rankWaitCycles_.inc(start - earliest);
    const Cycle completion = start + writeLatency_;
    busy = start + writeOccupancy_;
    pending_[rank].push(PendingWrite{line, words, std::move(done)});
    eq_.schedule(completion, [this, rank] {
        PendingWrite w = pending_[rank].pop();
        auto [it, fresh] = image_.try_emplace(w.line, zeroLine());
        (void)fresh;
        mergeWords(it->second, w.words);
        writesDone_.inc();
        if (w.done)
            w.done(eq_.now());
    });
    return completion;
}

Cycle
Nvm::read(LineAddr line, Cycle earliest)
{
    reads_.inc();
    Cycle &busy = rankBusyUntil_[rankOf(line)];
    const Cycle start = std::max(earliest, busy);
    rankWaitCycles_.inc(start - earliest);
    const Cycle completion = start + readLatency_;
    busy = start + readOccupancy_;
    return completion;
}

LineWords
Nvm::durable(LineAddr line) const
{
    auto it = image_.find(line);
    return it == image_.end() ? zeroLine() : it->second;
}

} // namespace tsoper
