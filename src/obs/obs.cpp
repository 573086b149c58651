#include "obs/obs.h"

namespace snap {
namespace obs {

constinit thread_local ThreadBuf* tl_buf = nullptr;

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::kExec:
      return "exec";
    case Cat::kClassify:
      return "classify";
    case Cat::kStateSuffix:
      return "state_suffix";
    case Cat::kWrite:
      return "write";
    case Cat::kEgress:
      return "egress";
    case Cat::kRingPush:
      return "ring_push";
    case Cat::kRingPop:
      return "ring_pop";
    case Cat::kRingFull:
      return "ring_full";
    case Cat::kDispatch:
      return "dispatch";
    case Cat::kMaskResolve:
      return "mask_resolve";
    case Cat::kWindowAdmit:
      return "window_admit";
    case Cat::kBurstAssemble:
      return "burst_assemble";
    case Cat::kGateWait:
      return "gate_wait";
    case Cat::kDrain:
      return "drain";
    case Cat::kEpochSwap:
      return "epoch_swap";
    case Cat::kSoundness:
      return "soundness";
    case Cat::kIdle:
      return "idle";
    case Cat::kP1Dependency:
      return "p1_dependency";
    case Cat::kP2Xfdd:
      return "p2_xfdd";
    case Cat::kP3StateMap:
      return "p3_state_map";
    case Cat::kP4MilpModel:
      return "p4_milp_model";
    case Cat::kP5Solve:
      return "p5_solve";
    case Cat::kP6Rulegen:
      return "p6_rulegen";
    case Cat::kPktDispatch:
      return "pkt_dispatch";
    case Cat::kPktSegment:
      return "pkt_segment";
    case Cat::kPktRingHop:
      return "pkt_ring_hop";
    case Cat::kPktGateWait:
      return "pkt_gate_wait";
    case Cat::kPktComplete:
      return "pkt_complete";
    case Cat::kCount:
      break;
  }
  return "unknown";
}

}  // namespace obs
}  // namespace snap
