#include "src/server/journal.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/crc32c.h"

namespace rubberband {

namespace {

void PutBe32(uint32_t value, char out[4]) {
  out[0] = static_cast<char>((value >> 24) & 0xff);
  out[1] = static_cast<char>((value >> 16) & 0xff);
  out[2] = static_cast<char>((value >> 8) & 0xff);
  out[3] = static_cast<char>(value & 0xff);
}

uint32_t GetBe32(const char in[4]) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(in[0])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3]));
}

bool WriteAllFd(int fd, const char* data, size_t size, std::string* error) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = std::string("wal write: ") + std::strerror(errno);
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

std::string RecordBytes(const std::string& payload) {
  std::string record;
  record.resize(kWalRecordHeaderBytes);
  PutBe32(static_cast<uint32_t>(payload.size()), record.data());
  PutBe32(Crc32c(payload), record.data() + 4);
  record.append(payload);
  return record;
}

}  // namespace

bool ParseFsyncPolicy(const std::string& name, FsyncPolicy* policy) {
  if (name == "always") {
    *policy = FsyncPolicy::kAlways;
  } else if (name == "batch") {
    *policy = FsyncPolicy::kBatch;
  } else if (name == "off") {
    *policy = FsyncPolicy::kOff;
  } else {
    return false;
  }
  return true;
}

const char* ToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "?";
}

WalWriter::~WalWriter() { Close(); }

bool WalWriter::Open(const std::string& path, const WalOptions& options, bool truncate,
                     std::string* error) {
  Close();
  options_ = options;
  int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
  if (truncate) {
    flags |= O_TRUNC;
  }
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    *error = "wal open '" + path + "': " + std::strerror(errno);
    return false;
  }
  if (truncate && !WriteAllFd(fd_, kWalMagic, kWalMagicBytes, error)) {
    Close();
    return false;
  }
  return true;
}

bool WalWriter::Create(const std::string& path, const WalOptions& options,
                       std::string* error) {
  return Open(path, options, /*truncate=*/true, error);
}

bool WalWriter::OpenAppend(const std::string& path, const WalOptions& options,
                           std::string* error) {
  return Open(path, options, /*truncate=*/false, error);
}

bool WalWriter::Append(const std::string& payload, std::string* error) {
  if (fd_ < 0) {
    *error = "wal not open";
    return false;
  }
  if (payload.size() > kMaxWalRecordBytes) {
    *error = "wal record of " + std::to_string(payload.size()) + " bytes exceeds limit";
    return false;
  }
  // One write() per record: the header and payload land contiguously, so a
  // crash can tear at any byte but cannot interleave records.
  const std::string record = RecordBytes(payload);
  if (!WriteAllFd(fd_, record.data(), record.size(), error)) {
    return false;
  }
  ++appends_;
  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      return Sync(error);
    case FsyncPolicy::kBatch:
      if (++unsynced_records_ >= options_.batch_records) {
        return Sync(error);
      }
      return true;
    case FsyncPolicy::kOff:
      return true;
  }
  return true;
}

bool WalWriter::AppendTorn(const std::string& payload, size_t bytes, std::string* error) {
  if (fd_ < 0) {
    *error = "wal not open";
    return false;
  }
  const std::string record = RecordBytes(payload);
  const size_t cut = bytes < record.size() ? bytes : record.size();
  if (!WriteAllFd(fd_, record.data(), cut, error)) {
    return false;
  }
  ::fsync(fd_);
  return true;
}

bool WalWriter::Sync(std::string* error) {
  if (fd_ < 0) {
    *error = "wal not open";
    return false;
  }
  if (::fsync(fd_) != 0) {
    *error = std::string("wal fsync: ") + std::strerror(errno);
    return false;
  }
  ++syncs_;
  unsynced_records_ = 0;
  return true;
}

void WalWriter::Close() {
  if (fd_ < 0) {
    return;
  }
  if (options_.fsync != FsyncPolicy::kOff) {
    std::string ignored;
    Sync(&ignored);
  }
  ::close(fd_);
  fd_ = -1;
}

void WalWriter::Abandon() {
  if (fd_ < 0) {
    return;
  }
  ::close(fd_);
  fd_ = -1;
}

bool ReadWal(const std::string& path, WalReadResult* result, std::string* error) {
  *result = WalReadResult{};
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return true;  // absent = empty journal (fresh server)
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();
  if (data.empty()) {
    return true;
  }
  if (data.size() < kWalMagicBytes ||
      std::memcmp(data.data(), kWalMagic, kWalMagicBytes) != 0) {
    *error = "wal corrupt at offset 0: bad magic (not a journal, or header overwritten)";
    return false;
  }
  size_t offset = kWalMagicBytes;
  result->valid_bytes = offset;
  while (offset < data.size()) {
    if (data.size() - offset < kWalRecordHeaderBytes) {
      result->torn_tail = true;
      result->torn_offset = offset;
      return true;
    }
    const uint32_t length = GetBe32(data.data() + offset);
    const uint32_t crc = GetBe32(data.data() + offset + 4);
    if (length > kMaxWalRecordBytes) {
      // An absurd length is indistinguishable from a corrupt header when
      // bytes follow it; at the very tail it could equally be a torn
      // header. Refusing is the safe call either way: an operator can
      // truncate by hand, recovery must not guess.
      *error = "wal corrupt at offset " + std::to_string(offset) + ": record length " +
               std::to_string(length) + " exceeds limit";
      return false;
    }
    if (data.size() - offset - kWalRecordHeaderBytes < length) {
      result->torn_tail = true;
      result->torn_offset = offset;
      return true;
    }
    const char* payload = data.data() + offset + kWalRecordHeaderBytes;
    if (Crc32cExtend(0, payload, length) != crc) {
      *error = "wal corrupt at offset " + std::to_string(offset) +
               ": crc mismatch on a complete record (refusing to resume)";
      return false;
    }
    result->records.emplace_back(payload, length);
    offset += kWalRecordHeaderBytes + length;
    result->valid_bytes = offset;
  }
  return true;
}

bool TruncateWal(const std::string& path, uint64_t valid_bytes, std::string* error) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    *error = "wal truncate '" + path + "': " + std::strerror(errno);
    return false;
  }
  return true;
}

}  // namespace rubberband
