#include "exec/arena.hh"

namespace manticore::exec {

namespace lo = ::manticore::limbops;

BitVector
Arena::read(uint32_t slot, unsigned width, unsigned lane) const
{
    const uint64_t *p = at(slot, width, lane);
    std::vector<uint64_t> limbs(p, p + lo::nlimbs(width));
    return BitVector::fromLimbs(width, limbs);
}

void
Arena::write(uint32_t slot, unsigned lane, const BitVector &value)
{
    lo::copy(at(slot, value.width(), lane), value.limbs().data(),
             lo::nlimbs(value.width()));
}

void
Arena::broadcast(uint32_t slot, const BitVector &value)
{
    lo::broadcast(data() + slot, value.limbs().data(),
                  lo::nlimbs(value.width()), _lanes);
}

} // namespace manticore::exec
