// Sporadic requests — controller queries against the dynamic flight
// database, the remaining on-demand activity of [13]'s basic ATM task set.
//
// Queries arrive randomly (a controller asks for one flight's record, for
// every aircraft in a sector, or for everything near a point) and must be
// answered within the period. This task is the associative processor's
// home turf: each query is literally one associative search; on the other
// platforms it is a scan.
//
// Answer determinism: every backend returns each query's matching aircraft
// ids in ascending order.
#pragma once

#include <span>
#include <vector>

#include "src/airfield/flight_db.hpp"
#include "src/atm/extended/ext_types.hpp"
#include "src/core/rng.hpp"

namespace atm::tasks::extended {

/// Evaluate one query against aircraft i. Pure predicate shared by every
/// backend.
[[nodiscard]] bool query_matches(const airfield::FlightDb& db,
                                 std::size_t i, const Query& query);

/// Generate a random query batch (the "controllers" — simulation
/// scaffolding, not an ATM task). kById targets an existing aircraft;
/// kInSector draws an occupied-ish sector by sampling an aircraft's
/// position; kNearPoint centres on a uniform field position.
/// `sectors_per_axis` is the display's grid and must meet
/// check_display_params.
[[nodiscard]] std::vector<Query> make_query_batch(
    const airfield::FlightDb& db, core::Rng& rng,
    const SporadicParams& params, int sectors_per_axis = 16);

/// Reference (sequential) evaluation of a query batch.
SporadicStats answer_queries(const airfield::FlightDb& db,
                             std::span<const Query> queries,
                             std::vector<std::vector<std::int32_t>>& answers);

}  // namespace atm::tasks::extended
