// The paper's evaluation workload: a grid-world robotics environment
// (Section VI-A, Figure 2). The agent starts in a random cell and must
// reach a goal cell while avoiding obstacles and the grid boundary.
//
// State addressing follows the paper exactly: for a 2^xb x 2^yb grid the
// state id is the bit-concatenation (x << yb) | y. Actions follow the
// paper's encodings:
//   4 actions: 00 left, 01 up, 10 right, 11 down;
//   8 actions: 000 left, 001 top-left, 010 up, 011 top-right, then
//              clockwise (100 right, 101 bottom-right, 110 down,
//              111 bottom-left).
// Rewards: reaching the goal yields +goal_reward (maximum), moving into a
// wall / obstacle / off-grid yields -collision_penalty and the agent stays
// in place; ordinary moves yield step_reward.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <utility>
#include <vector>

#include "common/bit_math.h"
#include "common/check.h"
#include "env/environment.h"
#include "rng/xoshiro.h"

namespace qta::env {

struct GridWorldConfig {
  unsigned width = 16;   // must be a power of two
  unsigned height = 16;  // must be a power of two
  unsigned num_actions = 4;  // 4 or 8
  std::optional<unsigned> goal_x;  // defaults to the far corner
  std::optional<unsigned> goal_y;
  double obstacle_density = 0.0;   // fraction of cells turned into obstacles
  std::uint64_t obstacle_seed = 1;
  /// Explicitly placed obstacles (x, y) — e.g. from an ASCII map
  /// (env/grid_map.h); combined with any density-generated ones.
  std::vector<std::pair<unsigned, unsigned>> extra_obstacles;
  double goal_reward = 255.0;
  double collision_penalty = 255.0;
  double step_reward = 0.0;
  /// Slippery floor: with this probability the executed move is rotated
  /// 90 degrees (clockwise or counter-clockwise, equally likely) from
  /// the intended one. 0 keeps the world deterministic. Realized through
  /// the transition block's noise input (8 + 1 LFSR bits).
  double slip_probability = 0.0;
};

class GridWorld final : public Environment {
 public:
  explicit GridWorld(const GridWorldConfig& config);

  StateId num_states() const override;
  ActionId num_actions() const override;
  unsigned transition_noise_bits() const override;
  StateId transition(StateId s, ActionId a,
                     std::uint64_t noise) const override;
  double reward(StateId s, ActionId a) const override;
  bool is_terminal(StateId s) const override;

  /// Deterministic move. Inline (it is also the devirtualized fast path
  /// of the functional backend, which executes it once per sample and
  /// needs the optimizer to see through it — see qtaccel/lane_engine.h).
  StateId transition(StateId s, ActionId a) const override {
    QTA_DCHECK(s < num_states() && a < num_actions());
    int dx = 0, dy = 0;
    action_delta(config_.num_actions, a, dx, dy);
    const int nx = static_cast<int>(x_of(s)) + dx;
    const int ny = static_cast<int>(y_of(s)) + dy;
    if (!in_bounds(nx, ny)) return s;  // bump into the boundary wall
    const StateId next =
        state_of(static_cast<unsigned>(nx), static_cast<unsigned>(ny));
    if (obstacle_[next]) return s;  // bump into an obstacle
    return next;
  }

  // Coordinate helpers (paper addressing).
  StateId state_of(unsigned x, unsigned y) const {
    QTA_DCHECK(x < config_.width && y < config_.height);
    return static_cast<StateId>((x << y_bits_) | y);
  }
  unsigned x_of(StateId s) const {
    return static_cast<unsigned>(s >> y_bits_);
  }
  unsigned y_of(StateId s) const {
    return static_cast<unsigned>(bits(s, 0, y_bits_));
  }

  bool is_obstacle(StateId s) const;
  StateId goal_state() const { return goal_; }
  const GridWorldConfig& config() const { return config_; }

  /// Signed displacement of action `a` as (dx, dy). y grows downward.
  static void action_delta(unsigned num_actions, ActionId a, int& dx,
                           int& dy) {
    if (num_actions == 4) {
      // 00 left, 01 up, 10 right, 11 down.
      static constexpr int kDx4[4] = {-1, 0, 1, 0};
      static constexpr int kDy4[4] = {0, -1, 0, 1};
      QTA_DCHECK(a < 4);
      dx = kDx4[a];
      dy = kDy4[a];
      return;
    }
    QTA_DCHECK(num_actions == 8 && a < 8);
    // 000 left, then clockwise: top-left, up, top-right, right,
    // bottom-right, down, bottom-left.
    static constexpr int kDx8[8] = {-1, -1, 0, 1, 1, 1, 0, -1};
    static constexpr int kDy8[8] = {0, -1, -1, -1, 0, 1, 1, 1};
    dx = kDx8[a];
    dy = kDy8[a];
  }

  /// ASCII rendering: '.' free, '#' obstacle, 'G' goal, and optionally an
  /// arrow map of a greedy policy (one glyph per cell from `policy`,
  /// indexed by state).
  void render(std::ostream& os,
              const std::vector<ActionId>* policy = nullptr) const;

 private:
  bool in_bounds(int x, int y) const {
    return x >= 0 && y >= 0 && x < static_cast<int>(config_.width) &&
           y < static_cast<int>(config_.height);
  }

  GridWorldConfig config_;
  unsigned x_bits_;
  unsigned y_bits_;
  StateId goal_;
  std::vector<bool> obstacle_;  // indexed by state id
};

}  // namespace qta::env
