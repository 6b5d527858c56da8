#include "vodsim/obs/trace.h"

#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace vodsim {

TraceCategory trace_event_category(TraceEventType type) {
  switch (type) {
    case TraceEventType::kArrival:
    case TraceEventType::kAdmit:
    case TraceEventType::kReject:
      return kTraceAdmission;
    case TraceEventType::kMigrateBegin:
    case TraceEventType::kMigrateEnd:
    case TraceEventType::kMigrationSearch:
      return kTraceMigration;
    case TraceEventType::kRecompute:
    case TraceEventType::kUrgentOn:
    case TraceEventType::kUrgentOff:
      return kTraceSched;
    case TraceEventType::kAllocationChange:
      return kTraceAllocation;
    case TraceEventType::kServerDown:
    case TraceEventType::kServerUp:
    case TraceEventType::kStreamDropped:
    case TraceEventType::kStreamRecovered:
    case TraceEventType::kBrownoutBegin:
    case TraceEventType::kBrownoutEnd:
    case TraceEventType::kStreamShed:
    case TraceEventType::kRetryEnqueued:
    case TraceEventType::kRetryReadmitted:
    case TraceEventType::kRetryAbandoned:
    case TraceEventType::kRepairPlanned:
    case TraceEventType::kPartitionBegin:
    case TraceEventType::kPartitionEnd:
      return kTraceFailure;
    case TraceEventType::kReplicationBegin:
    case TraceEventType::kReplicationEnd:
      return kTraceReplication;
    case TraceEventType::kBufferFull:
    case TraceEventType::kBufferLow:
    case TraceEventType::kUnderflow:
      return kTraceBuffer;
    case TraceEventType::kTxComplete:
    case TraceEventType::kPlaybackEnd:
    case TraceEventType::kPause:
    case TraceEventType::kResume:
      return kTraceLifecycle;
  }
  assert(false && "unhandled TraceEventType");
  return kTraceLifecycle;
}

const char* to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kArrival: return "arrival";
    case TraceEventType::kAdmit: return "admit";
    case TraceEventType::kReject: return "reject";
    case TraceEventType::kMigrateBegin: return "migrate_begin";
    case TraceEventType::kMigrateEnd: return "migrate_end";
    case TraceEventType::kMigrationSearch: return "migration_search";
    case TraceEventType::kRecompute: return "recompute";
    case TraceEventType::kUrgentOn: return "urgent_on";
    case TraceEventType::kUrgentOff: return "urgent_off";
    case TraceEventType::kAllocationChange: return "allocation_change";
    case TraceEventType::kServerDown: return "server_down";
    case TraceEventType::kServerUp: return "server_up";
    case TraceEventType::kStreamDropped: return "stream_dropped";
    case TraceEventType::kStreamRecovered: return "stream_recovered";
    case TraceEventType::kBrownoutBegin: return "brownout_begin";
    case TraceEventType::kBrownoutEnd: return "brownout_end";
    case TraceEventType::kStreamShed: return "stream_shed";
    case TraceEventType::kRetryEnqueued: return "retry_enqueued";
    case TraceEventType::kRetryReadmitted: return "retry_readmit";
    case TraceEventType::kRetryAbandoned: return "retry_abandoned";
    case TraceEventType::kRepairPlanned: return "repair_planned";
    case TraceEventType::kPartitionBegin: return "partition_begin";
    case TraceEventType::kPartitionEnd: return "partition_end";
    case TraceEventType::kReplicationBegin: return "replication_begin";
    case TraceEventType::kReplicationEnd: return "replication_end";
    case TraceEventType::kBufferFull: return "buffer_full";
    case TraceEventType::kBufferLow: return "buffer_low";
    case TraceEventType::kUnderflow: return "underflow";
    case TraceEventType::kTxComplete: return "tx_complete";
    case TraceEventType::kPlaybackEnd: return "playback_end";
    case TraceEventType::kPause: return "pause";
    case TraceEventType::kResume: return "resume";
  }
  return "unknown";
}

const char* to_string(TraceCategory category) {
  switch (category) {
    case kTraceAdmission: return "admission";
    case kTraceMigration: return "migration";
    case kTraceSched: return "sched";
    case kTraceAllocation: return "allocation";
    case kTraceFailure: return "failure";
    case kTraceReplication: return "replication";
    case kTraceBuffer: return "buffer";
    case kTraceLifecycle: return "lifecycle";
  }
  return "unknown";
}

std::uint32_t parse_trace_categories(const std::string& spec) {
  if (spec.empty()) return kTraceAllCategories;

  // Numeric bitmask ("1", "0xff", "255").
  {
    char* end = nullptr;
    const unsigned long value = std::strtoul(spec.c_str(), &end, 0);
    if (end != nullptr && *end == '\0') {
      return value != 0 ? static_cast<std::uint32_t>(value) & kTraceAllCategories
                        : 0u;
    }
  }

  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string name =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (name == "all") mask |= kTraceAllCategories;
    else if (name == "admission") mask |= kTraceAdmission;
    else if (name == "migration") mask |= kTraceMigration;
    else if (name == "sched") mask |= kTraceSched;
    else if (name == "allocation") mask |= kTraceAllocation;
    else if (name == "failure") mask |= kTraceFailure;
    else if (name == "replication") mask |= kTraceReplication;
    else if (name == "buffer") mask |= kTraceBuffer;
    else if (name == "lifecycle") mask |= kTraceLifecycle;
    else if (!name.empty()) {
      throw std::invalid_argument("unknown trace category: " + name);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return mask;
}

TraceRecorder::TraceRecorder(const TraceConfig& config)
    : mask_(config.categories & kTraceAllCategories),
      capacity_(config.capacity > 0 ? config.capacity : 1) {
  // reserve, not resize: the slab is addressable without touching (and with
  // a default 1M-event ring, zero-filling) 48 MB up front. Slots are
  // push_back-initialized on first use, then overwritten in place forever.
  ring_.reserve(capacity_);
}

void TraceRecorder::record(Seconds time, TraceEventType type, ServerId server,
                           RequestId request, VideoId video, double a, double b) {
  if (ring_.size() < capacity_) {
    ring_.push_back(TraceEvent{next_seq_++, time, type, server, request, video,
                               a, b});
    return;
  }
  TraceEvent& slot = ring_[start_];  // overwrite the oldest
  start_ = (start_ + 1) % capacity_;
  slot.seq = next_seq_++;
  slot.time = time;
  slot.type = type;
  slot.server = server;
  slot.request = request;
  slot.video = video;
  slot.a = a;
  slot.b = b;
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back((*this)[i]);
  return out;
}

}  // namespace vodsim
