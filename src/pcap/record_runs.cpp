#include "pcap/record_runs.hpp"

#include <utility>

namespace tdat {

namespace {

// The magic is defined as read little-endian; same table as PcapStream.
constexpr std::uint32_t kMagicMicrosLE = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNanosLE = 0xa1b23c4d;
constexpr std::uint32_t kMagicMicrosBE = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanosBE = 0x4d3cb2a1;

constexpr std::size_t kGlobalHeaderLen = 24;

std::uint32_t read_u32(const std::uint8_t* p, bool swapped) {
  return swapped ? static_cast<std::uint32_t>(p[0]) << 24 |
                       static_cast<std::uint32_t>(p[1]) << 16 |
                       static_cast<std::uint32_t>(p[2]) << 8 | p[3]
                 : static_cast<std::uint32_t>(p[3]) << 24 |
                       static_cast<std::uint32_t>(p[2]) << 16 |
                       static_cast<std::uint32_t>(p[1]) << 8 | p[0];
}

}  // namespace

Result<PcapImageHeader> parse_pcap_image_header(
    std::span<const std::uint8_t> image) {
  if (image.size() < kGlobalHeaderLen) {
    return Err<PcapImageHeader>("pcap: truncated global header");
  }
  PcapImageHeader h;
  const std::uint32_t magic = static_cast<std::uint32_t>(image[0]) |
                              static_cast<std::uint32_t>(image[1]) << 8 |
                              static_cast<std::uint32_t>(image[2]) << 16 |
                              static_cast<std::uint32_t>(image[3]) << 24;
  switch (magic) {
    case kMagicMicrosLE: break;
    case kMagicNanosLE: h.nanos = true; break;
    case kMagicMicrosBE: h.swapped = true; break;
    case kMagicNanosBE: h.swapped = true; h.nanos = true; break;
    default: return Err<PcapImageHeader>("pcap: bad magic number");
  }
  h.snaplen = read_u32(image.data() + 16, h.swapped);
  return h;
}

Result<RecordRunReader> RecordRunReader::open(
    std::shared_ptr<const void> pin, std::span<const std::uint8_t> image,
    std::vector<RecordRun> runs) {
  TDAT_TRY(header, parse_pcap_image_header(image));
  RecordRunReader r;
  r.pin_ = std::move(pin);
  r.image_ = image;
  r.header_ = header;
  r.runs_ = std::move(runs);
  if (!r.runs_.empty()) {
    r.offset_ = r.runs_.front().offset;
    r.left_ = r.runs_.front().count;
  }
  return r;
}

std::uint32_t RecordRunReader::u32_at(std::size_t at) const {
  return read_u32(image_.data() + at, header_.swapped);
}

bool RecordRunReader::next(StreamRecord& out) {
  if (failed()) return false;
  // Skip exhausted (and empty) runs.
  while (left_ == 0) {
    if (++run_ >= runs_.size()) return false;
    offset_ = runs_[run_].offset;
    left_ = runs_[run_].count;
  }
  if (offset_ < kGlobalHeaderLen ||
      offset_ + kRecordHeaderLen > image_.size()) {
    error_ = "shard plan: record header at offset " + std::to_string(offset_) +
             " is outside the capture image";
    return false;
  }
  const std::uint32_t ts_sec = u32_at(offset_);
  const std::uint32_t ts_frac = u32_at(offset_ + 4);
  const std::uint32_t incl_len = u32_at(offset_ + 8);
  const std::uint32_t orig_len = u32_at(offset_ + 12);
  // The same sanity gates PcapStream applies before serving a record: a plan
  // built from this image can only trip them if the file changed underneath.
  if (incl_len == 0 || incl_len > header_.effective_snaplen() ||
      ts_frac >= (header_.nanos ? 1000000000u : 1000000u) ||
      offset_ + kRecordHeaderLen + incl_len > image_.size()) {
    error_ = "shard plan: implausible record at offset " +
             std::to_string(offset_) + " (capture changed since planning?)";
    return false;
  }
  out.ts = static_cast<Micros>(ts_sec) * kMicrosPerSec +
           (header_.nanos ? ts_frac / 1000 : ts_frac);
  out.orig_len = orig_len;
  out.data = image_.subspan(offset_ + kRecordHeaderLen, incl_len);
  out.arena = pin_;
  out.file_offset = offset_;
  offset_ += kRecordHeaderLen + incl_len;
  --left_;
  bytes_read_ += kRecordHeaderLen + incl_len;
  ++records_read_;
  return true;
}

}  // namespace tdat
