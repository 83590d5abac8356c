// Satellite electrical power budget.
//
// §2.2 of the paper: "given the power cost of executing rotations for ISLs
// and establishing those links, satellites may have power consumption
// constraints that limit the number of ISLs they can establish and the size
// of data transfers they can facilitate". PowerBudget is the admission
// gate the ISL manager consults before accepting a new link or a slew.
#pragma once

#include <string>
#include <vector>

namespace openspace {

/// Tracks generation, storage and committed loads on a spacecraft bus.
/// All power in watts, energy in watt-hours.
class PowerBudget {
 public:
  /// `generationW`: orbit-average solar generation. `batteryWh`: usable
  /// storage. `busLoadW`: always-on platform load (ADCS, OBC, thermal).
  /// Throws InvalidArgumentError if generation <= busLoad or anything
  /// negative.
  PowerBudget(double generationW, double batteryWh, double busLoadW);

  /// Power left for new payload loads right now.
  double availableW() const noexcept;

  /// True if a new continuous load of `loadW` fits the budget.
  bool canCommit(double loadW) const noexcept;

  /// Reserve a continuous load (e.g. an active ISL terminal). Returns a
  /// commitment id. Throws CapacityError if it does not fit,
  /// InvalidArgumentError if loadW <= 0.
  int commit(double loadW, std::string label);

  /// Release a previous commitment. Throws NotFoundError for unknown ids.
  void release(int commitmentId);

  /// One-shot energy draw (e.g. a slew maneuver): checks the battery and
  /// deducts. Throws CapacityError when the battery cannot supply it.
  void drawEnergy(double energyWh);

  /// Recharge from generation surplus over `durationS` seconds (capped at
  /// battery capacity).
  void recharge(double durationS);

  double generationW() const noexcept { return generationW_; }
  double batteryChargeWh() const noexcept { return batteryChargeWh_; }
  std::size_t activeCommitments() const noexcept { return labels_.size(); }

 private:
  double generationW_;
  double batteryCapacityWh_;
  double batteryChargeWh_;
  double busLoadW_;
  double committedW_ = 0.0;
  std::vector<std::pair<int, double>> loads_;  // (id, watts)
  std::vector<std::pair<int, std::string>> labels_;
  int nextId_ = 1;
};

}  // namespace openspace
