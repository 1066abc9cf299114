/**
 * @file
 * "Stop the world" strict TSO persistency (§III, §V "Systems"):
 * identical AG formation to TSOPER, but on any exposure-driven freeze
 * the whole machine stalls until every frozen atomic group has been
 * buffered *and drained to NVM* — the naive design trusts nothing
 * in flight.  This is the baseline TSOPER's non-blocking ordering
 * machinery is measured against (Fig. 11).
 */

#ifndef TSOPER_CORE_STW_ENGINE_HH
#define TSOPER_CORE_STW_ENGINE_HH

#include "core/tsoper_engine.hh"

namespace tsoper
{

class StwEngine : public TsoperEngine
{
  public:
    StwEngine(const SystemConfig &cfg, EventQueue &eq, SlcProtocol &slc,
              Agb &agb, StatsRegistry &stats);

    bool coreStalled(CoreId core) const override;
    void addStallWaiter(InlineCallback resume) override;

  protected:
    void onFroze(CoreId core, const AtomicGroup &ag, FreezeReason why,
                 Cycle now) override;
    void onRetired(CoreId core, Cycle now) override;

  private:
    void maybeResume();

    bool stalled_ = false;
    Cycle stallStart_ = 0;
    std::vector<InlineCallback> stallWaiters_;
    Counter &stalls_;
    Counter &stallCycles_;
};

} // namespace tsoper

#endif // TSOPER_CORE_STW_ENGINE_HH
