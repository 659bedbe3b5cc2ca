#include "src/atm/extended/sporadic.hpp"

#include <cmath>

#include "src/atm/extended/display.hpp"
#include "src/core/units.hpp"

namespace atm::tasks::extended {

bool query_matches(const airfield::FlightDb& db, std::size_t i,
                   const Query& query) {
  switch (query.kind) {
    case QueryKind::kById:
      return static_cast<std::int32_t>(i) == query.id;
    case QueryKind::kInSector:
      return db.sector[i] == query.sector;
    case QueryKind::kNearPoint: {
      const double dx = db.x[i] - query.x;
      const double dy = db.y[i] - query.y;
      return dx * dx + dy * dy <= query.radius_nm * query.radius_nm;
    }
  }
  return false;
}

std::vector<Query> make_query_batch(const airfield::FlightDb& db,
                                    core::Rng& rng,
                                    const SporadicParams& params,
                                    int sectors_per_axis) {
  check_display_params({.sectors_per_axis = sectors_per_axis});
  std::vector<Query> batch;
  if (db.empty()) return batch;
  for (int q = 0; q < params.queries_per_batch; ++q) {
    Query query;
    const int kind = rng.uniform_int(0, 2);
    query.kind = static_cast<QueryKind>(kind);
    switch (query.kind) {
      case QueryKind::kById:
        query.id = rng.uniform_int(0, static_cast<int>(db.size()) - 1);
        break;
      case QueryKind::kInSector: {
        // Sample an aircraft's position so the sector is usually occupied.
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(db.size()) - 1));
        query.sector = sector_of(db.x[i], db.y[i], sectors_per_axis);
        break;
      }
      case QueryKind::kNearPoint:
        query.x = rng.uniform(-core::kGridHalfExtentNm,
                              core::kGridHalfExtentNm);
        query.y = rng.uniform(-core::kGridHalfExtentNm,
                              core::kGridHalfExtentNm);
        query.radius_nm = params.near_radius_nm;
        break;
    }
    batch.push_back(query);
  }
  return batch;
}

SporadicStats answer_queries(
    const airfield::FlightDb& db, std::span<const Query> queries,
    std::vector<std::vector<std::int32_t>>& answers) {
  SporadicStats stats;
  stats.queries = queries.size();
  answers.assign(queries.size(), {});
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t i = 0; i < db.size(); ++i) {
      if (query_matches(db, i, queries[q])) {
        answers[q].push_back(static_cast<std::int32_t>(i));
        ++stats.hits;
      }
    }
  }
  return stats;
}

}  // namespace atm::tasks::extended
