// Plume monitoring: watch a pollutant plume evolve under the
// advection–diffusion PDE while a PAS network tracks it; renders the
// covered region and node states as ASCII frames and optionally dumps
// per-node CSV.
//
//   $ ./plume_monitoring [--frames N] [--seed N] [--csv out.csv]
//                        [--diffusivity D] [--wind-x W] [--wind-y W]
#include <fstream>
#include <iostream>

#include "io/cli.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "world/paper_setup.hpp"
#include "world/scenario.hpp"
#include "world/workspace.hpp"

namespace {

// Draws the region the stimulus covers at time t ('#', else '.'), one
// cell center per character with row 0 at the top, and overlays the nodes.
std::string render_frame(const pas::stimulus::StimulusModel& model,
                         const pas::world::RunResult& result,
                         pas::geom::Aabb region, double t, int cols,
                         int rows) {
  std::string art;
  for (int r = 0; r < rows; ++r) {
    const double y = region.hi.y - (r + 0.5) * region.height() / rows;
    for (int c = 0; c < cols; ++c) {
      const double x = region.lo.x + (c + 0.5) * region.width() / cols;
      art.push_back(model.covered({x, y}, t) ? '#' : '.');
    }
    art.push_back('\n');
  }
  for (std::size_t i = 0; i < result.positions.size(); ++i) {
    const auto p = result.positions[i];
    const int c = static_cast<int>((p.x - region.lo.x) / region.width() * cols);
    const int r = static_cast<int>((region.hi.y - p.y) / region.height() * rows);
    if (c < 0 || c >= cols || r < 0 || r >= rows) continue;
    const auto idx = static_cast<std::size_t>(r) *
                         (static_cast<std::size_t>(cols) + 1) +
                     static_cast<std::size_t>(c);
    const auto& oc = result.outcomes[i];
    // o = still safe/asleep, X = has detected by t.
    art[idx] = (oc.was_detected && oc.detected <= t) ? 'X' : 'o';
  }
  return art;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t frames = 5;
  std::uint64_t seed = 7;
  std::string csv_path;
  double diffusivity = 1.2;
  double wind_x = 0.08, wind_y = 0.06;

  pas::io::Cli cli("plume_monitoring",
                   "PAS network tracking an advection-diffusion plume");
  cli.add_int("frames", &frames, "number of ASCII frames to render");
  cli.add_uint("seed", &seed, "random seed");
  cli.add_string("csv", &csv_path, "write per-node outcomes to this CSV file");
  cli.add_double("diffusivity", &diffusivity, "plume diffusivity (m^2/s)");
  cli.add_double("wind-x", &wind_x, "wind x-component (m/s)");
  cli.add_double("wind-y", &wind_y, "wind y-component (m/s)");
  if (!cli.parse(argc, argv)) return cli.status() == 0 ? 0 : 2;

  pas::world::PaperSetupOverrides o;
  o.seed = seed;
  o.stimulus = pas::world::StimulusKind::kPde;
  pas::world::ScenarioConfig cfg = pas::world::paper_scenario(o);
  cfg.pde.diffusivity = diffusivity;
  cfg.pde.wind = {wind_x, wind_y};

  std::cout << "simulating " << cfg.deployment.count << " nodes over "
            << cfg.duration_s << "s (PDE grid " << cfg.pde.nx << "x"
            << cfg.pde.ny << ", D=" << diffusivity << ", wind=(" << wind_x
            << "," << wind_y << "))...\n";
  // One workspace solves the PDE once: the frames read its cached model,
  // and the run finds the model already built.
  pas::world::Workspace workspace;
  const auto* model = &workspace.model_for(cfg);
  const auto result = workspace.run(cfg);

  for (std::int64_t f = 1; f <= frames; ++f) {
    const double t =
        cfg.pde.start_time +
        (cfg.duration_s - cfg.pde.start_time) * static_cast<double>(f) /
            static_cast<double>(frames);
    std::cout << "\n--- t = " << pas::io::fixed(t, 0)
              << "s  (o = node, X = node that has detected) ---\n"
              << render_frame(*model, result, cfg.deployment.region, t, 64, 24);
  }

  const auto& m = result.metrics;
  std::cout << "\nresult: detected " << m.detected << "/" << m.reached
            << " reached nodes, avg delay "
            << pas::io::fixed(m.avg_delay_s, 2) << "s, avg energy "
            << pas::io::fixed(m.avg_energy_j, 3) << "J/node\n";

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::cerr << "cannot open " << csv_path << " for writing\n";
      return 1;
    }
    pas::io::CsvWriter csv(out);
    csv.header({"id", "x", "y", "arrival_s", "detected_s", "delay_s",
                "energy_j", "tx_count"});
    for (const auto& oc : result.outcomes) {
      csv.row({std::to_string(oc.id), pas::io::format_double(oc.position.x),
               pas::io::format_double(oc.position.y),
               pas::io::format_double(oc.arrival),
               pas::io::format_double(oc.detected),
               oc.was_detected ? pas::io::format_double(oc.delay_s) : "",
               pas::io::format_double(oc.energy_j),
               std::to_string(oc.tx_count)});
    }
    std::cout << "wrote " << csv.rows_written() << " rows to " << csv_path
              << '\n';
  }
  return 0;
}
