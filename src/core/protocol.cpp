#include "core/protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/estimation.hpp"

namespace pas::core {

namespace {

/// The most grid instants one plan walks over. Arming early is exact (the
/// recheck finds nothing and plans the next stretch), so this only bounds a
/// plan's work, which the simulation horizon does not: with no row expiry
/// a distant prediction could otherwise be walked to second by second.
constexpr int kMaxPlanSteps = 1024;

}  // namespace

void ProtocolStats::add(const ProtocolStats& other) {
  wakeups += other.wakeups;
  requests_sent += other.requests_sent;
  responses_sent += other.responses_sent;
  responses_pushed += other.responses_pushed;
  pushes_suppressed += other.pushes_suppressed;
  messages_received += other.messages_received;
  alert_entries += other.alert_entries;
  alert_exits += other.alert_exits;
  covered_entries += other.covered_entries;
  covered_timeouts += other.covered_timeouts;
  failures += other.failures;
  prediction_hits += other.prediction_hits;
  prediction_misses += other.prediction_misses;
  sleep_s.merge(other.sleep_s);
}

Protocol::Protocol(sim::Simulator& simulator, net::Network& network,
                   std::vector<node::SensorNode>& nodes,
                   const stimulus::StimulusModel& model,
                   const stimulus::ArrivalMap& arrivals,
                   ProtocolConfig config, const sim::SeedSequence& seeds,
                   const node::FailurePlan* failures, sim::TraceLog* trace,
                   net::Collection* collection)
    : simulator_(simulator),
      network_(network),
      nodes_(nodes),
      model_(model),
      arrivals_(arrivals),
      config_(std::move(config)),
      failures_(failures),
      trace_(trace),
      collection_(collection),
      wake_rng_(seeds.stream(sim::SeedSequence::kProtocol)) {
  config_.validate();
  policy_ = make_policy(config_);
  if (nodes_.size() != network_.size() || nodes_.size() != arrivals_.size()) {
    throw std::invalid_argument(
        "Protocol: nodes, network and arrival map sizes must agree");
  }
  // Nodes sense through the map's sites, which only its own model can read
  // and which must sit where the nodes do.
  if (!arrivals_.built_by(model_)) {
    throw std::invalid_argument(
        "Protocol: the arrival map was built by another stimulus model");
  }
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (arrivals_.site(i).position != nodes_[i].position) {
      throw std::invalid_argument(
          "Protocol: the arrival map was built for other node positions");
    }
  }
  runtime_.resize(nodes_.size());
  for (std::uint32_t i = 0; i < runtime_.size(); ++i) {
    runtime_[i].table.reserve(network_.neighbors_of(i).size());
  }
}

void Protocol::trace(sim::TraceCategory cat, std::uint32_t i,
                     sim::TraceKind kind) {
  if (trace_ != nullptr) {
    trace_->record(simulator_.now(), cat, i, kind);
  }
}

void Protocol::start() {
  if (started_) throw std::logic_error("Protocol::start called twice");
  started_ = true;

  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    Runtime& rt = runtime_[i];
    rt.policy.sleep_interval = policy_->initial_interval();

    // Bind each per-node handler exactly once; every later (re-)arm only
    // schedules a trampoline instead of re-capturing a fresh closure.
    rt.wake_timer.bind(simulator_, [this, i] { on_wake(i); });
    rt.eval_timer.bind(simulator_, [this, i] { on_safe_evaluate(i); });
    rt.recheck_timer.bind(simulator_, [this, i] { on_alert_recheck(i); });
    rt.estimate_timer.bind(simulator_, [this, i] { on_covered_estimate(i); });
    rt.covered_check_timer.bind(simulator_, [this, i] { on_covered_check(i); });

    network_.set_rx_handler(
        i, [this, i](const net::Message& msg) { on_message(i, msg); });

    if (policy_->sleeps()) {
      // Enter the duty cycle immediately; first wake is drawn uniformly in
      // [0, initial interval] so the network does not sample in lock-step.
      const sim::Duration first =
          wake_rng_.uniform(0.0, policy_->initial_interval());
      nodes_[i].asleep = true;
      nodes_[i].meter.set_mode(energy::PowerMode::kSleep, simulator_.now());
      network_.set_listening(i, false);
      rt.wake_timer.arm_in(first);
    } else {
      nodes_[i].asleep = false;
      network_.set_listening(i, true);
    }

    if (const sim::Time arrival = arrivals_.at(i); arrival < sim::kNever) {
      simulator_.schedule_at(arrival, [this, i] { on_arrival(i); });
    }
    if (failures_ != nullptr) {
      if (const sim::Time death = failures_->death_time(i);
          death < sim::kNever) {
        simulator_.schedule_at(death, [this, i] { on_failure(i); });
      }
    }
  }
}

void Protocol::on_arrival(std::uint32_t i) {
  if (nodes_[i].failed) return;
  // Active sensors detect immediately (§4.1); sleeping sensors miss the
  // instant and detect at their next wake-up's sensing step.
  if (!nodes_[i].asleep) detect(i);
}

void Protocol::detect(std::uint32_t i) {
  node::SensorNode& n = nodes_[i];
  Runtime& rt = runtime_[i];
  if (rt.state == NodeState::kCovered) return;

  if (!n.has_detected()) n.detected = simulator_.now();
  // A finite predicted arrival at detection time means the prediction
  // machinery saw this coming; kNever means the front surprised the node.
  if (rt.predicted_arrival < sim::kNever) {
    ++stats_.prediction_hits;
  } else {
    ++stats_.prediction_misses;
  }
  rt.last_seen_covered = simulator_.now();
  cancel_pending(i);
  set_state(i, NodeState::kCovered);
  ++stats_.covered_entries;
  trace(sim::TraceCategory::kDetection, i, sim::TraceKind::kDetected);
  if (collection_ != nullptr) {
    // Raise the multihop alert toward the sink; the backbone's fallback
    // answer is whatever this node predicted before the front hit it.
    collection_->originate(i, simulator_.now(), rt.predicted_arrival);
  }

  if (policy_->covered_nodes_estimate()) {
    // Gather covered neighbors' detection times to compute the actual
    // velocity (formula 1), then advertise the new state.
    send_request(i);
    rt.estimate_timer.arm_in(config_.response_wait_s);
  }
  if (model_.recedes()) {
    rt.covered_check_timer.arm_in(config_.covered_timeout_s * 0.5);
  }
}

void Protocol::on_covered_estimate(std::uint32_t i) {
  Runtime& rt = runtime_[i];
  if (nodes_[i].failed || rt.state != NodeState::kCovered) return;

  if (config_.observation_ttl_s > 0.0) {
    rt.table.expire_older_than(simulator_.now() - config_.observation_ttl_s);
  }
  if (const auto actual = actual_velocity(
          nodes_[i].position, nodes_[i].detected, rt.table.entries())) {
    rt.velocity = *actual;
    rt.velocity_valid = true;
    if (trace_ != nullptr && trace_->enabled()) {
      sim::TraceEvent e;
      e.time = simulator_.now();
      e.category = sim::TraceCategory::kMisc;
      e.kind = sim::TraceKind::kActualVelocity;
      e.node = i;
      e.x = rt.velocity.x;
      e.y = rt.velocity.y;
      trace_->record(e);
    }
  }
  // else: keep any expected-velocity estimate from the alert phase; the
  // very first covered node (at the source) has neither.
  send_response(i);
}

void Protocol::on_covered_check(std::uint32_t i) {
  Runtime& rt = runtime_[i];
  if (nodes_[i].failed || rt.state != NodeState::kCovered) return;

  if (model_.covered_at(arrivals_.site(i), simulator_.now())) {
    rt.last_seen_covered = simulator_.now();
  } else if (simulator_.now() - rt.last_seen_covered >=
             config_.covered_timeout_s) {
    // Stimulus receded: detection timeout elapsed, back to safe (Fig 3).
    ++stats_.covered_timeouts;
    trace(sim::TraceCategory::kState, i, sim::TraceKind::kCoveredTimeout);
    demote_to_safe(i);
    return;
  }
  rt.covered_check_timer.arm_in(config_.covered_timeout_s * 0.5);
}

void Protocol::on_wake(std::uint32_t i) {
  node::SensorNode& n = nodes_[i];
  Runtime& rt = runtime_[i];
  if (n.failed || rt.state != NodeState::kSafe) return;

  ++stats_.wakeups;
  n.asleep = false;
  n.meter.set_mode(energy::PowerMode::kActive, simulator_.now());
  network_.set_listening(i, true);
  trace(sim::TraceCategory::kSleep, i, sim::TraceKind::kWoke);

  if (model_.covered_at(arrivals_.site(i), simulator_.now())) {
    detect(i);
    return;
  }

  switch (policy_->on_wake(rt.policy)) {
    case WakeAction::kQueryPeers:
      send_request(i);
      [[fallthrough]];
    case WakeAction::kListenOnly:
      rt.awaiting_eval = true;
      rt.eval_timer.arm_in(config_.response_wait_s);
      break;
    case WakeAction::kSleepAgain:
      // Uneventful by construction: no sensing hit, no evaluation wanted.
      rt.policy.sleep_interval = policy_->next_sleep_interval(
          rt.policy, simulator_.now(), rt.predicted_arrival);
      go_to_sleep(i);
      break;
  }
}

void Protocol::on_safe_evaluate(std::uint32_t i) {
  node::SensorNode& n = nodes_[i];
  Runtime& rt = runtime_[i];
  if (n.failed || rt.state != NodeState::kSafe || n.asleep) return;
  rt.awaiting_eval = false;

  refresh_estimates(i);

  const sim::Time now = simulator_.now();
  if (trace_ != nullptr && trace_->enabled()) {
    sim::TraceEvent e;
    e.time = now;
    e.category = sim::TraceCategory::kMisc;
    e.kind = sim::TraceKind::kEval;
    e.node = i;
    e.x = rt.predicted_arrival;
    e.a = static_cast<std::uint32_t>(rt.table.size());
    trace_->record(e);
  }
  if (policy_->on_evaluate(rt.policy, now, rt.predicted_arrival)) {
    enter_alert(i);
    return;
  }

  // Uneventful wake-up: let the policy lengthen the interval and sleep.
  rt.policy.sleep_interval =
      policy_->next_sleep_interval(rt.policy, now, rt.predicted_arrival);
  go_to_sleep(i);
}

void Protocol::enter_alert(std::uint32_t i) {
  Runtime& rt = runtime_[i];
  set_state(i, NodeState::kAlert);
  ++stats_.alert_entries;
  rt.policy.sleep_interval = policy_->initial_interval();  // restart on return
  rt.recheck_at = simulator_.now() + config_.alert_recheck_s;
  if (policy_->wants_alert_participation()) {
    maybe_push_response(i, rt.last_pushed_prediction);
  }
  plan_recheck(i);
}

void Protocol::on_alert_recheck(std::uint32_t i) {
  node::SensorNode& n = nodes_[i];
  Runtime& rt = runtime_[i];
  if (n.failed || rt.state != NodeState::kAlert) return;

  const sim::Time now = simulator_.now();
  const sim::Time predicted = rt.predicted_arrival;
  refresh_estimates(i);

  if (!policy_->on_evaluate(rt.policy, now, rt.predicted_arrival)) {
    ++stats_.alert_exits;
    trace(sim::TraceCategory::kState, i, sim::TraceKind::kArrivalReceded);
    demote_to_safe(i);
    return;
  }
  if (policy_->wants_alert_participation()) maybe_push_response(i, predicted);
  rt.recheck_at = now + config_.alert_recheck_s;
  plan_recheck(i);
}

void Protocol::plan_recheck(std::uint32_t i) {
  Runtime& rt = runtime_[i];
  const sim::Time p = rt.predicted_arrival;
  const PredictionPolicy prediction =
      policy_->prediction_policy(NodeState::kAlert);
  const sim::Duration tol = prediction.overdue_tolerance_s;
  const sim::Duration ttl = config_.observation_ttl_s;
  const sim::Time oldest =
      ttl > 0.0 ? rt.table.oldest_received_at() : sim::kNever;
  const bool pushes = policy_->wants_alert_participation();
  // What on_alert_recheck at t can change besides the prediction and the
  // policy's verdict: refresh_estimates() drops a row, or a push passes.
  const auto expires = [&](sim::Time t) { return oldest < t - ttl; };
  const auto pushes_at = [&](sim::Time t) { return pushes && push_due(rt, t); };

  sim::Time t = rt.recheck_at;
  // The first instant folds in full: alert entry folded with the safe
  // state's overdue tolerance, and a peer at the node's own position folds
  // to `now` itself.
  const bool acts =
      expires(t) ||
      rt.table.predict_arrival(nodes_[i].position, t, prediction) != p ||
      !policy_->on_evaluate(rt.policy, t, p) || pushes_at(t);
  if (!acts) {
    // P folded at t, so at later instants it holds until it is overdue
    // (p < t − tol), and on_evaluate stays true by its contract. Expiry,
    // overdue and a due push are monotone in t. Rounding is monotone too,
    // so t < fl(x + y) gives fl(t − y) ≤ x: no instant before
    // `quiet_until` expires a row or finds P overdue.
    const sim::Time quiet_until = std::min(oldest + ttl, p + tol);
    // push_due() at kNever is its limit: whether it ever holds.
    const bool may_push = pushes && push_due(rt, sim::kNever);
    int steps = 1;
    t += config_.alert_recheck_s;
    if (!may_push) {
      for (; steps < kMaxPlanSteps && t < quiet_until; ++steps) {
        t += config_.alert_recheck_s;
      }
    }
    for (; steps < kMaxPlanSteps && !expires(t) && !(p < t - tol) &&
           !pushes_at(t);
         ++steps) {
      t += config_.alert_recheck_s;
    }
  }
  // Re-arming the same instant would only re-queue it behind its peers.
  if (t != rt.recheck_due || !rt.recheck_timer.pending()) {
    rt.recheck_timer.arm_at(t);
  }
  rt.recheck_due = t;
}

void Protocol::demote_to_safe(std::uint32_t i) {
  Runtime& rt = runtime_[i];
  cancel_pending(i);
  set_state(i, NodeState::kSafe);
  rt.predicted_arrival = sim::kNever;
  rt.policy.sleep_interval = policy_->initial_interval();
  if (policy_->sleeps()) {
    go_to_sleep(i);
  }
}

void Protocol::go_to_sleep(std::uint32_t i) {
  node::SensorNode& n = nodes_[i];
  Runtime& rt = runtime_[i];
  n.asleep = true;
  n.meter.set_mode(energy::PowerMode::kSleep, simulator_.now());
  network_.set_listening(i, false);
  stats_.sleep_s.record(rt.policy.sleep_interval);
  if (trace_ != nullptr && trace_->enabled()) {
    sim::TraceEvent e;
    e.time = simulator_.now();
    e.category = sim::TraceCategory::kSleep;
    e.kind = sim::TraceKind::kSleepFor;
    e.node = i;
    e.x = rt.policy.sleep_interval;
    trace_->record(e);
  }
  rt.wake_timer.arm_in(rt.policy.sleep_interval);
}

void Protocol::send_request(std::uint32_t i) {
  network_.broadcast(i, net::Message{});  // no payload: a REQUEST
  ++stats_.requests_sent;
  trace(sim::TraceCategory::kMessage, i, sim::TraceKind::kRequest);
}

void Protocol::send_response(std::uint32_t i) {
  const Runtime& rt = runtime_[i];
  net::Message msg;
  net::ResponsePayload& payload = msg.payload.emplace<net::ResponsePayload>();
  payload.position = nodes_[i].position;
  payload.state = encode(rt.state);
  payload.velocity = rt.velocity;
  payload.velocity_valid = rt.velocity_valid;
  payload.predicted_arrival = rt.state == NodeState::kCovered
                                  ? nodes_[i].detected
                                  : rt.predicted_arrival;
  payload.detected_at = nodes_[i].detected;
  network_.broadcast(i, msg);
  ++stats_.responses_sent;
  trace(sim::TraceCategory::kMessage, i, sim::TraceKind::kResponse);
}

bool Protocol::push_due(const Runtime& rt, sim::Time t) const {
  return t - rt.last_push_time >= config_.min_push_gap_s &&
         significant_change(rt.last_pushed_prediction, rt.predicted_arrival, t,
                            config_.rebroadcast_rel_change,
                            config_.rebroadcast_abs_floor_s);
}

void Protocol::maybe_push_response(std::uint32_t i, sim::Time before) {
  Runtime& rt = runtime_[i];
  const sim::Time now = simulator_.now();
  if (!push_due(rt, now)) {
    // Only a new prediction had something to say.
    if (rt.predicted_arrival != before) ++stats_.pushes_suppressed;
    return;
  }
  rt.last_push_time = now;
  rt.last_pushed_prediction = rt.predicted_arrival;
  send_response(i);
  ++stats_.responses_pushed;
}

void Protocol::refresh_estimates(std::uint32_t i) {
  Runtime& rt = runtime_[i];
  if (config_.observation_ttl_s > 0.0) {
    rt.table.expire_older_than(simulator_.now() - config_.observation_ttl_s);
  }
  // The table answers from its cached per-peer terms and velocity sum,
  // bit for bit what the free functions give over entries().
  if (rt.state != NodeState::kCovered) {
    if (const auto expected = rt.table.expected_velocity()) {
      rt.velocity = *expected;
      rt.velocity_valid = true;
    }
  }
  rt.predicted_arrival =
      rt.table.predict_arrival(nodes_[i].position, simulator_.now(),
                               policy_->prediction_policy(rt.state));
}

void Protocol::on_message(std::uint32_t i, const net::Message& msg) {
  node::SensorNode& n = nodes_[i];
  Runtime& rt = runtime_[i];
  if (n.failed || n.asleep) return;  // radio is off; network also filters
  ++stats_.messages_received;

  if (msg.type() == net::MessageType::kRequest) {
    // §3.2: covered and alert sensors answer REQUESTs. Under SAS only
    // covered sensors carry stimulus information, so alert nodes stay quiet.
    if (rt.state == NodeState::kCovered ||
        (rt.state == NodeState::kAlert &&
         policy_->wants_alert_participation())) {
      send_response(i);
    }
    return;
  }

  // RESPONSE: fold the peer's info into the table.
  const net::ResponsePayload& payload = msg.response();
  PeerObservation obs;
  obs.id = msg.sender;
  obs.position = payload.position;
  obs.state = decode_state(payload.state);
  obs.velocity = payload.velocity;
  obs.velocity_valid = payload.velocity_valid;
  obs.predicted_arrival = payload.predicted_arrival;
  obs.detected_at = payload.detected_at;
  obs.received_at = simulator_.now();
  rt.table.update(obs);

  if (rt.state == NodeState::kCovered && !rt.velocity_valid) {
    // This node detected with no earlier-covered neighbor in earshot (e.g.
    // near-simultaneous detections): keep trying as information arrives —
    // first the paper's formula 1, else adopt the neighborhood's expected
    // velocity so downstream predictions are not starved.
    const auto peers = rt.table.entries();
    if (const auto actual = actual_velocity(nodes_[i].position,
                                            nodes_[i].detected, peers)) {
      rt.velocity = *actual;
      rt.velocity_valid = true;
    } else if (const auto expected = expected_velocity(peers)) {
      rt.velocity = *expected;
      rt.velocity_valid = true;
    }
    if (rt.velocity_valid && policy_->covered_nodes_estimate()) {
      send_response(i);
    }
    return;
  }

  if (rt.state == NodeState::kAlert) {
    // §3.2 alert behaviour: re-calculate on every RESPONSE; push own update
    // when the expectation changed significantly; fall back to safe when
    // the arrival receded beyond the threshold.
    const sim::Time now = simulator_.now();
    const sim::Time predicted = rt.predicted_arrival;
    const sim::Time push_time = rt.last_push_time;
    const sim::Time pushed = rt.last_pushed_prediction;
    refresh_estimates(i);
    if (!policy_->on_evaluate(rt.policy, now, rt.predicted_arrival)) {
      ++stats_.alert_exits;
      trace(sim::TraceCategory::kState, i, sim::TraceKind::kArrivalReceded);
      demote_to_safe(i);
      return;
    }
    if (policy_->wants_alert_participation()) maybe_push_response(i, predicted);
    // A RESPONSE that leaves the prediction and the push record alone can
    // only move the first instant that acts later, and arming early is
    // exact: a recheck that finds nothing re-plans. So does one due now.
    if ((rt.predicted_arrival != predicted || rt.last_push_time != push_time ||
         rt.last_pushed_prediction != pushed) &&
        rt.recheck_due > now) {
      // The plan starts from recheck_at: step it past the quiet instants up
      // to now (each recheck is queued a period before its instant).
      while (rt.recheck_at <= now) rt.recheck_at += config_.alert_recheck_s;
      plan_recheck(i);
    }
  }
  // Safe nodes awaiting evaluation act at their eval event; covered nodes
  // only use RESPONSEs via the estimate event.
}

void Protocol::on_failure(std::uint32_t i) {
  node::SensorNode& n = nodes_[i];
  if (n.failed) return;
  n.failed = true;
  ++stats_.failures;
  cancel_pending(i);
  network_.set_failed(i);
  // A dead node draws (approximately) nothing; meter it as sleeping, which
  // at 15 µW is negligible over any run we evaluate.
  n.meter.set_mode(energy::PowerMode::kSleep, simulator_.now());
  n.asleep = true;
  trace(sim::TraceCategory::kFailure, i, sim::TraceKind::kNodeFailed);
}

void Protocol::cancel_pending(std::uint32_t i) {
  Runtime& rt = runtime_[i];
  rt.recheck_at = sim::kNever;
  rt.recheck_due = sim::kNever;
  rt.wake_timer.cancel();
  rt.eval_timer.cancel();
  rt.recheck_timer.cancel();
  rt.estimate_timer.cancel();
  rt.covered_check_timer.cancel();
  rt.awaiting_eval = false;
}

void Protocol::set_state(std::uint32_t i, NodeState next) {
  Runtime& rt = runtime_[i];
  if (rt.state == next) return;
  if (trace_ != nullptr && trace_->enabled()) {
    sim::TraceEvent e;
    e.time = simulator_.now();
    e.category = sim::TraceCategory::kState;
    e.kind = sim::TraceKind::kStateChange;
    e.node = i;
    e.s1 = to_string(rt.state);
    e.s2 = to_string(next);
    trace_->record(e);
  }
  rt.state = next;
}

std::uint64_t Protocol::timer_reschedules() const noexcept {
  std::uint64_t total = 0;
  for (const Runtime& rt : runtime_) {
    total += rt.wake_timer.reschedules();
    total += rt.eval_timer.reschedules();
    total += rt.recheck_timer.reschedules();
    total += rt.estimate_timer.reschedules();
    total += rt.covered_check_timer.reschedules();
  }
  return total;
}

std::size_t Protocol::count_in_state(NodeState s) const {
  return static_cast<std::size_t>(
      std::count_if(runtime_.begin(), runtime_.end(),
                    [s](const Runtime& rt) { return rt.state == s; }));
}

}  // namespace pas::core
