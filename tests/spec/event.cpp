#include <openspace/spec/event.hpp>

#include <utility>

#include <openspace/geo/error.hpp>

namespace openspace {

EventId EventQueue::schedule(double tSeconds, Handler fn) {
  if (tSeconds < nowS_) {
    throw InvalidArgumentError("EventQueue::schedule: time is in the past");
  }
  const std::uint64_t seq = seq_++;
  events_.push(Ev{tSeconds, seq, std::move(fn)});
  live_.insert(seq);
  return EventId{seq + 1};  // id 0 stays the reserved "unset" value
}

EventId EventQueue::scheduleIn(double delayS, Handler fn) {
  return schedule(nowS_ + delayS, std::move(fn));
}

bool EventQueue::cancel(EventId id) {
  if (!id.isValid()) return false;
  return live_.erase(id.value() - 1) > 0;
}

void EventQueue::prune() {
  while (!events_.empty() && !live_.contains(events_.top().seq)) {
    events_.pop();
  }
}

bool EventQueue::step() {
  prune();
  if (events_.empty()) return false;
  // priority_queue::top is const; the handler must be moved out before pop.
  Ev ev = std::move(const_cast<Ev&>(events_.top()));
  events_.pop();
  live_.erase(ev.seq);
  nowS_ = ev.tS;
  ev.fn();
  return true;
}

std::size_t EventQueue::run(double untilS) {
  std::size_t n = 0;
  prune();
  while (!events_.empty() && events_.top().tS <= untilS) {
    step();
    ++n;
    prune();
  }
  if (nowS_ < untilS) nowS_ = untilS;
  return n;
}

std::size_t EventQueue::runAll() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace openspace
