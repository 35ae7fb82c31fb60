#include "par/comm.hh"

namespace tdfe
{

void
Communicator::barrier()
{
    post(CollectiveSeq::Blocking, CollectiveKind::Barrier, nullptr, 0,
         ReduceOp::Sum, 0, nullptr)
        .wait();
}

double
Communicator::allreduce(double value, ReduceOp op)
{
    double result = 0.0;
    post(CollectiveSeq::Blocking, CollectiveKind::Allreduce, &value, 1,
         op, 0, &result)
        .wait();
    return result;
}

void
Communicator::allreduceVec(double *data, std::size_t count,
                           ReduceOp op)
{
    post(CollectiveSeq::Blocking, CollectiveKind::AllreduceVec, data,
         count, op, 0, data)
        .wait();
}

CommRequest
Communicator::iallreduce(double value, ReduceOp op, double *result)
{
    return post(CollectiveSeq::NonBlocking, CollectiveKind::Allreduce,
                &value, 1, op, 0, result);
}

CommRequest
Communicator::ibcast(double *data, std::size_t count, int root)
{
    // Only the root's payload matters; other ranks contribute just
    // their arrival and receive the payload into data at completion.
    return post(CollectiveSeq::NonBlocking, CollectiveKind::Bcast,
                rank() == root ? data : nullptr, count, ReduceOp::Sum,
                root, data);
}

} // namespace tdfe
